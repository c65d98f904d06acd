"""State encoding for the rewrite environment.

The encoding is deliberately independent from the classifier features: this
module computes its own byte histogram and entropy (with the neutral
:mod:`amg.bytestats`) and imports nothing from the detector side, so an agent
only ever sees generic file statistics, never the quantities the classifiers
score.  Layout (272 values):

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
from ..bytestats import entropy_of_counts, segment_counts
from ..pe_model import PeImage

N_OBSERVATION = 272
_N_HISTOGRAM = 256


def observe(img: PeImage, raw: bytes) -> np.ndarray:
    """Encode a parsed image and its exact bytes into the 272-value state.

    ``raw`` must be the image's own bytes (the bytes it was parsed from, or
    ``serialize(img)``): the section byte counts are taken from the image and
    the rest from ``raw``, so the state is a function of ``raw`` alone.
    ``raw`` too short to hold the image's sections raises ``ValueError``.
    """
    x = np.zeros(N_OBSERVATION, dtype=np.float64)
    size = max(len(raw), 1)
    counts, section_counts = segment_counts(raw, img.raw_parts())
    x[:_N_HISTOGRAM] = counts / size
    x[256] = len(img.sections) / 16.0
    x[257] = len(img.overlay) / size
    descriptors, _ = pe_model.import_descriptors(img, pe_model.section_map(img))
    x[258] = len(descriptors) / 16.0
    x[259] = img.header_slack / 4096.0
    entropies = [
        entropy_of_counts(c, len(s.data)) for c, s in zip(section_counts, img.sections) if s.data
    ]
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
