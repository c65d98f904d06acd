"""Feature extraction for the two black-box classifiers.

The structural extractor summarizes a parsed image into 128 numbers covering
header fields, section shape, imports, planted byte motifs and coarse byte
texture.  Counts that an attacker can only grow (motif hits, suspicious
imports, hot-band bytes) are expressed as densities or fractions so that
appending innocuous content genuinely dilutes them.

The bigram extractor ignores structure entirely: it hashes consecutive byte
pairs from the first 64 KiB into 1024 buckets and L1-normalizes the counts.

Each extractor is handed what it counted last (:class:`StructuralCounts`,
:class:`BigramCounts`) and counts again only where the bytes changed, by the
rule of :mod:`amg.bytestats`; a new carry counts everything, to the same
features.
"""

from __future__ import annotations

import math

import numpy as np

from .. import pe_model, signals
from ..bytestats import ByteCounts, changed_window, recount
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


def _motif_hits(data: bytes) -> np.ndarray:
    return np.array(signals.count_motif_hits(data))


class StructuralCounts(ByteCounts):
    """:class:`ByteCounts` of the last image counted, with its motif hits and
    import walk, carried to the next.

    Motif hits are counted again over the changed window widened by
    ``MOTIF_LEN - 1`` bytes on each side (exact because no motif has a
    border, see :func:`signals.count_motif_hits`).  The import walk is
    kept with all it reads: the optional header's magic, the import
    directory's RVA and the :func:`pe_model.section_map`.
    """

    def __init__(self) -> None:
        super().__init__()
        self.hits = np.zeros(len(signals.MOTIFS), dtype=np.int64)
        self.imports: list[pe_model.ImportDescriptor] = []
        self._import_key: tuple | None = None

    def count(self, img: PeImage, raw: bytes) -> None:
        """Update the counts, hits and imports to ``img`` and its bytes ``raw``."""
        old = self.raw
        window = self.update(raw, img.raw_parts())
        self.hits = recount(self.hits, old, raw, window, _motif_hits, _MOTIF_REACH)
        key = (img.optional.magic, img.directory(pe_model.DIR_IMPORT).rva, pe_model.section_map(img))
        if key != self._import_key:
            self.imports, self._import_key = pe_model.parse_imports(img), key


def extract_features_structural(img: PeImage, raw: bytes, carry: StructuralCounts) -> np.ndarray:
    """128 structural features for a parsed image and its exact bytes.

    ``carry`` holds what was counted for earlier bytes and is updated to
    ``raw``'s; a new one counts every byte, and the features are the same.
    """
    carry.count(img, raw)
    imports, hits, counts, section_entropies = carry.imports, carry.hits, carry.counts, carry.entropies

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

    x[12] = hits.sum() / (size / 4096.0)
    x[13] = np.count_nonzero(hits) / len(hits)

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

    x[68:100] = hits > 0

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
    x[123] = len(opt.data_directories) / 16.0
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

    A pair with a changed byte lies within one byte of it, so :meth:`update`
    counts again only the changed window widened by one byte on each side.
    A new object starts from nothing, so its first update counts every pair.
    """

    def __init__(self) -> None:
        self._window = np.zeros(0, dtype=np.uint8)
        self._counts = np.zeros(N_FEATURES_BIGRAM, dtype=np.int64)

    def update(self, window: np.ndarray) -> np.ndarray:
        """Bucket counts of the pairs of ``window``; they become the counts carried."""
        span = changed_window(self._window, window)
        self._counts = recount(self._counts, self._window, window, span, _bucket_counts, 1)
        self._window = window
        return self._counts


def extract_features_bigram(raw: bytes, carry: BigramCounts) -> np.ndarray:
    """1024 hashed byte-bigram frequencies over the first 64 KiB.

    ``carry`` holds the counts of an earlier window and is updated to
    ``raw``'s; a new one counts every pair, and the features are the same.
    """
    x = carry.update(np.frombuffer(raw[:BIGRAM_WINDOW], dtype=np.uint8)).astype(np.float64)
    total = x.sum()
    if total > 0:
        x /= total
    return x
