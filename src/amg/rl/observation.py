"""State encoding for the rewrite environment.

The encoding is deliberately independent from the classifier features: this
module computes its own byte histogram and entropy (with the neutral
:mod:`amg.bytestats`) and imports nothing from the detector side, so an agent
only ever sees generic file statistics, never the quantities the classifiers
score.  An env carries :class:`amg.bytestats.ByteCounts` from one state to
the next, so after a rewrite only the bytes it changed and the sections
whose payload it replaced are counted again, by the rule detector A's
counts also follow; the state is the same as counting everything.
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
from ..bytestats import ByteCounts
from ..pe_model import PeImage

N_OBSERVATION = 272
_N_HISTOGRAM = 256


def observe(img: PeImage, raw: bytes, carry: ByteCounts) -> np.ndarray:
    """Encode a parsed image and its exact bytes into the 272-value state.

    ``raw`` must be the image's own bytes (the bytes it was parsed from, or
    ``serialize(img)``): the section entropies are taken from the image and
    the rest from ``raw``, so the state is a function of ``raw`` alone.
    ``raw`` too short to hold the image's sections raises ``ValueError``.
    ``carry`` holds the counts of earlier bytes and is updated to ``raw``'s;
    a new one counts every byte, and the state is the same.
    """
    parts = img.raw_parts()
    end = max((offset + len(data) for offset, data in parts if offset is not None), default=0)
    if end > len(raw):
        raise ValueError(f"sections end at {end}, past the {len(raw)} bytes given")
    carry.update(raw, parts)
    entropies = [e for e, (_, data) in zip(carry.entropies, parts) if data]
    x = np.zeros(N_OBSERVATION, dtype=np.float64)
    size = max(len(raw), 1)
    x[:_N_HISTOGRAM] = carry.counts / size
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
