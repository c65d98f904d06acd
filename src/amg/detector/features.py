"""Feature extraction for the two black-box classifiers.

The structural extractor summarizes a parsed image into 128 numbers covering
header fields, section shape, imports, planted byte motifs and coarse byte
texture.  Counts that an attacker can only grow (motif hits, suspicious
imports, hot-band bytes) are expressed as densities or fractions so that
appending innocuous content genuinely dilutes them.

The bigram extractor ignores structure entirely: it hashes consecutive byte
pairs from the first 64 KiB into 1024 buckets and L1-normalizes the counts.

Each extractor counts everything unless it is handed what it counted last
time (:class:`StructuralCounts`, :class:`BigramCounts`); then it counts
again only the bytes in the window where the new bytes differ from the last
ones (:func:`amg.bytestats.changed_window`), and the features are the same.
"""

from __future__ import annotations

import math

import numpy as np

from .. import pe_model, signals
from ..bytestats import changed_window, entropy_of_counts, segment_counts
from ..pe_model import PeImage

N_FEATURES_STRUCTURAL = 128
N_FEATURES_BIGRAM = 1024
BIGRAM_WINDOW = 65_536

# Build-timestamp boundaries (seconds since 1970) separating the ordinary
# release window from implausibly old or not-yet-reached dates.
TS_OLD_BOUNDARY = 1_120_000_000  # mid-2005
TS_NEW_BOUNDARY = 1_751_000_000  # mid-2025

# A motif occurrence that touches a changed byte lies within this many bytes of it.
_MOTIF_REACH = signals.MOTIF_LEN - 1


class StructuralCounts:
    """The byte-derived quantities of the last image counted, carried to the next.

    Keeps that image's bytes with their whole-file byte counts and motif
    hits, each section payload with its entropy, and the import walk with
    all it reads: the optional header's magic, the import directory's RVA
    and the :func:`pe_model.section_map`.  A new object starts from nothing,
    so its first :meth:`update` counts every byte.
    """

    def __init__(self) -> None:
        self._raw = b""
        self._counts = np.zeros(256, dtype=np.float64)
        self._hits = [0] * len(signals.MOTIFS)
        self._payloads: list[bytes] = []
        self._entropies: list[float] = []
        self._import_key: tuple | None = None
        self._imports: list[pe_model.ImportDescriptor] = []

    def update(
        self, img: PeImage, raw: bytes
    ) -> tuple[list[pe_model.ImportDescriptor], list[int], np.ndarray, list[float]]:
        """The imports, motif hits, whole-file byte counts (float64) and
        per-section entropies of ``img`` and its bytes ``raw``, counting only
        what differs from the last update; they become the ones carried.

        Motif hits are recounted over the changed window widened by
        ``MOTIF_LEN - 1`` bytes on each side (exact because no motif has a
        border, see :func:`signals.count_motif_hits`); a section's entropy is
        reused while its payload equals the same-index payload counted last.
        """
        payloads = [s.data for s in img.sections]
        stale = [
            i for i, data in enumerate(payloads)
            if i >= len(self._payloads) or self._payloads[i] != data
        ]
        old, new = np.frombuffer(self._raw, dtype=np.uint8), np.frombuffer(raw, dtype=np.uint8)
        window = changed_window(old, new)
        if window is None:
            parts = img.raw_parts()
            counts, fresh = segment_counts(raw, [parts[i] for i in stale])
            hits = signals.count_motif_hits(raw)
        else:
            head, tail = window
            counts = (
                self._counts
                - np.bincount(old[head : len(old) - tail], minlength=256)
                + np.bincount(new[head : len(new) - tail], minlength=256)
            )
            fresh = [np.bincount(np.frombuffer(payloads[i], dtype=np.uint8), minlength=256) for i in stale]
            lo = max(head - _MOTIF_REACH, 0)
            gone = signals.count_motif_hits(self._raw[lo : len(old) - tail + _MOTIF_REACH])
            came = signals.count_motif_hits(raw[lo : len(raw) - tail + _MOTIF_REACH])
            hits = [h - g + c for h, g, c in zip(self._hits, gone, came)]
        entropies = self._entropies[: len(payloads)]
        entropies += [0.0] * (len(payloads) - len(entropies))
        for i, c in zip(stale, fresh):
            entropies[i] = entropy_of_counts(c, len(payloads[i]))

        key = (img.optional.magic, img.directory(pe_model.DIR_IMPORT).rva, pe_model.section_map(img))
        imports = self._imports if key == self._import_key else pe_model.parse_imports(img)

        self._raw, self._counts, self._hits = raw, counts, hits
        self._payloads, self._entropies = payloads, entropies
        self._import_key, self._imports = key, imports
        return imports, hits, counts, entropies


def extract_features_structural(
    img: PeImage, raw: bytes, carry: StructuralCounts | None = None
) -> np.ndarray:
    """128 structural features for a parsed image and its exact bytes.

    ``carry`` holds what was counted for earlier bytes and is updated to
    ``raw``'s; without it every byte is counted.  Either way the features
    are the same.
    """
    if carry is None:
        imports = pe_model.parse_imports(img)
        hits = signals.count_motif_hits(raw)
        counts, section_counts = segment_counts(raw, img.raw_parts())
        section_entropies = [entropy_of_counts(c, len(s.data)) for c, s in zip(section_counts, img.sections)]
    else:
        imports, hits, counts, section_entropies = carry.update(img, raw)

    x = np.zeros(N_FEATURES_STRUCTURAL, dtype=np.float64)
    size = max(len(raw), 1)
    opt = img.optional

    x[0] = 1.0 if opt.checksum == 0 else 0.0
    stamp = img.coff.time_date_stamp
    x[1] = stamp / 2.0**32
    x[2] = 1.0 if stamp < TS_OLD_BOUNDARY else 0.0
    x[3] = 1.0 if stamp > TS_NEW_BOUNDARY else 0.0
    x[4] = 1.0 if img.directory(pe_model.DIR_DEBUG).rva else 0.0
    x[5] = 1.0 if img.directory(pe_model.DIR_SECURITY).size else 0.0
    x[6] = len(img.overlay) / size
    x[7] = 1.0 if img.overlay else 0.0
    x[8] = len(img.sections) / 16.0

    n_funcs = sum(len(d.function_names) for d in imports)
    suspicious_api = set(signals.SUSPICIOUS_APIS)
    n_susp = sum(
        1 for d in imports for fn in d.function_names if fn in suspicious_api
    )
    x[9] = len(imports) / 16.0
    x[10] = n_funcs / 64.0
    x[11] = n_susp / n_funcs if n_funcs else 0.0

    x[12] = sum(hits) / (size / 4096.0)
    x[13] = sum(1 for h in hits if h) / len(hits)

    entropies = [e for e, s in zip(section_entropies, img.sections) if s.data]
    if entropies:
        x[14] = (sum(entropies) / len(entropies)) / 8.0
        x[15] = max(entropies) / 8.0
        x[16] = min(entropies) / 8.0
    x[17] = img.header_slack / 4096.0
    x[18] = math.log2(size) / 32.0

    vs_slack = [
        max(s.virtual_size - s.size_of_raw_data, 0) / max(s.virtual_size, 1)
        for s in img.sections
    ]
    x[19] = sum(vs_slack) / len(vs_slack) if vs_slack else 0.0

    names = {s.display_name for s in img.sections}
    for i, vocab_name in enumerate(signals.SECTION_NAME_VOCAB):
        x[20 + i] = 1.0 if vocab_name in names else 0.0

    imported_funcs = {fn for d in imports for fn in d.function_names}
    for i, api in enumerate(signals.SUSPICIOUS_APIS):
        x[36 + i] = 1.0 if api in imported_funcs else 0.0

    for d in imports:
        x[52 + (hash_dll(d.dll_name) % 16)] = 1.0

    for i, h in enumerate(hits):
        x[68 + i] = 1.0 if h else 0.0

    coarse = counts.reshape(16, 16).sum(axis=1) / size
    x[100:116] = coarse
    x[116] = counts[0x20:0x7F].sum() / size
    x[117] = counts[0] / size
    x[118] = counts[0xA0:0xC0].sum() / size

    entry = img.entry_section_index()
    if entry is not None:
        x[119] = section_entropies[entry] / 8.0
        x[120] = opt.address_of_entry_point / max(opt.size_of_image, 1)
    x[121] = (
        sum(1 for s in img.sections if not s.has_raw()) / len(img.sections)
        if img.sections
        else 0.0
    )
    name_lens = [len(s.name.rstrip(b"\x00")) for s in img.sections]
    x[122] = (sum(name_lens) / len(name_lens)) / 8.0 if name_lens else 0.0
    x[123] = opt.number_of_rva_and_sizes / 16.0
    x[124] = opt.size_of_image / 2.0**24
    x[125] = opt.size_of_headers / 4096.0
    x[126] = len(img.dos_stub) / 1024.0
    x[127] = len(img.padding_spans) / 16.0
    return x


def hash_dll(name: str) -> int:
    """Stable tiny hash of a DLL name (case-folded) for bucketed presence flags."""
    h = 2166136261
    for ch in name.lower().encode("ascii", "replace"):
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return h


def bigram_buckets(window: np.ndarray) -> np.ndarray:
    """Bucket ``((a << 8) | b) % 1024`` of each consecutive byte pair
    ``(a, b)`` of a uint8 array: b and a's low two bits, as 1024 = 2**10."""
    idx = (window[:-1] & 3).astype(np.intp)
    idx <<= 8
    idx |= window[1:]
    return idx


def _bucket_counts(window: np.ndarray) -> np.ndarray:
    return np.bincount(bigram_buckets(window), minlength=N_FEATURES_BIGRAM)


class BigramCounts:
    """The 64 KiB window last counted and its bucket counts, carried to the next.

    A new object starts from nothing, so its first :meth:`update` counts
    every pair.
    """

    def __init__(self) -> None:
        self._window = np.zeros(0, dtype=np.uint8)
        self._counts = np.zeros(N_FEATURES_BIGRAM, dtype=np.int64)

    def update(self, window: np.ndarray) -> np.ndarray:
        """Bucket counts of the pairs of ``window``, recounting only the pairs
        with a byte in the changed window, that is the window widened by one
        byte on each side; they become the counts carried."""
        span = changed_window(self._window, window)
        if span is None:
            counts = _bucket_counts(window)
        else:
            head, tail = span
            old, lo = self._window, max(head - 1, 0)
            counts = (
                self._counts
                - _bucket_counts(old[lo : len(old) - tail + 1])
                + _bucket_counts(window[lo : len(window) - tail + 1])
            )
        self._window, self._counts = window, counts
        return counts


def extract_features_bigram(raw: bytes, carry: BigramCounts | None = None) -> np.ndarray:
    """1024 hashed byte-bigram frequencies over the first 64 KiB.

    ``carry`` holds the counts of an earlier window and is updated to
    ``raw``'s; without it every pair is counted.  Either way the features
    are the same.
    """
    window = np.frombuffer(raw[:BIGRAM_WINDOW], dtype=np.uint8)
    counts = _bucket_counts(window) if carry is None else carry.update(window)
    x = counts.astype(np.float64)
    total = x.sum()
    if total > 0:
        x /= total
    return x
