"""State encoding for the rewrite environment.

The encoding is deliberately independent from the classifier features: this
module computes its own byte histogram and entropy (with the neutral
:mod:`amg.bytestats`) and imports nothing from the detector side, so an agent
only ever sees generic file statistics, never the quantities the classifiers
score.  An env carries :class:`ByteCounts` from one state to the next, so
after a rewrite only the bytes it changed (the window
:func:`amg.bytestats.changed_window` finds, the rule the detectors also
count by) and the sections whose payload it replaced are counted again; the
state is the same as counting everything.
Layout (272 values):

* ``[0:256]``   whole-file byte histogram, normalized to sum to one
* ``[256:272]`` sixteen scalars, each scaled into roughly [0, 1]:
  section count, overlay fraction, import descriptor count, header slack,
  mean section entropy, checksum-is-zero flag, build timestamp, debug-entry
  flag, certificate flag, log2 file size, entry section index, and five
  zeros reserved for future signals.
"""

from __future__ import annotations

import math

import numpy as np

from .. import pe_model
from ..bytestats import changed_window, entropy_of_counts
from ..pe_model import PeImage

N_OBSERVATION = 272
_N_HISTOGRAM = 256


def _byte_counts(view: np.ndarray) -> np.ndarray:
    return np.bincount(view, minlength=_N_HISTOGRAM)


class ByteCounts:
    """Byte counts of the last bytes counted, carried to the next ones.

    Keeps those bytes with their whole-file counts, and the entropy of each
    section payload by the payload's own ``bytes`` object: an image copy
    shares the payload of every section a rewrite left alone.  A new object
    starts from nothing, so its first :meth:`update` counts every byte.
    """

    def __init__(self) -> None:
        self._raw = np.zeros(0, dtype=np.uint8)
        self._counts = np.zeros(_N_HISTOGRAM, dtype=np.int64)
        # id(data) -> (data, entropy); holding ``data`` keeps its id unique
        self._entropies: dict[int, tuple[bytes, float]] = {}

    def update(self, img: PeImage, raw: bytes) -> tuple[np.ndarray, list[float]]:
        """Whole-file byte counts of ``raw`` and the entropy of each non-empty
        section of ``img``, in table order, counting only what differs from
        the last update (or every byte, where :func:`changed_window` says
        that reads less); these become the counts carried to the next one."""
        new = np.frombuffer(raw, dtype=np.uint8)
        old = self._raw
        window = changed_window(old, new)
        if window is None:
            counts = _byte_counts(new)
        else:
            head, tail = window
            counts = (
                self._counts
                - _byte_counts(old[head : len(old) - tail])
                + _byte_counts(new[head : len(new) - tail])
            )
        entropies, kept = [], {}
        for s in img.sections:
            if not s.data:
                continue
            key = id(s.data)
            entry = self._entropies.get(key)
            if entry is None:
                view = np.frombuffer(s.data, dtype=np.uint8)
                entry = (s.data, entropy_of_counts(_byte_counts(view), len(s.data)))
            kept[key] = entry
            entropies.append(entry[1])
        self._raw, self._counts, self._entropies = new, counts, kept
        return counts, entropies


def observe(img: PeImage, raw: bytes, counts: ByteCounts | None = None) -> np.ndarray:
    """Encode a parsed image and its exact bytes into the 272-value state.

    ``raw`` must be the image's own bytes (the bytes it was parsed from, or
    ``serialize(img)``): the section entropies are taken from the image and
    the rest from ``raw``, so the state is a function of ``raw`` alone.
    ``raw`` too short to hold the image's sections raises ``ValueError``.
    ``counts`` carries the byte counts of earlier bytes and is updated to
    ``raw``'s; without it every byte is counted.  Either way the state is
    the same.
    """
    parts = img.raw_parts()
    end = max((offset + len(data) for offset, data in parts if offset is not None), default=0)
    if end > len(raw):
        raise ValueError(f"sections end at {end}, past the {len(raw)} bytes given")
    byte_counts, entropies = (ByteCounts() if counts is None else counts).update(img, raw)
    x = np.zeros(N_OBSERVATION, dtype=np.float64)
    size = max(len(raw), 1)
    x[:_N_HISTOGRAM] = byte_counts / size
    x[256] = len(img.sections) / 16.0
    x[257] = len(img.overlay) / size
    descriptors, _ = pe_model.import_descriptors(img, pe_model.section_map(img))
    x[258] = len(descriptors) / 16.0
    x[259] = img.header_slack / 4096.0
    x[260] = (sum(entropies) / len(entropies)) / 8.0 if entropies else 0.0
    x[261] = 1.0 if img.optional.checksum == 0 else 0.0
    x[262] = img.coff.time_date_stamp / 2.0**32
    x[263] = 1.0 if img.directory(pe_model.DIR_DEBUG).rva else 0.0
    x[264] = 1.0 if img.directory(pe_model.DIR_SECURITY).size else 0.0
    x[265] = math.log2(size) / 32.0
    entry = img.entry_section_index()
    x[266] = entry / 16.0 if entry is not None else 0.0
    # x[267:272] reserved, kept at zero
    return x
