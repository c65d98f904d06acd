"""Byte statistics shared by the detector features and the RL observation.

Both sides summarize raw bytes the same way, so the arithmetic lives here,
in a module that imports nothing from either side: the observation code can
use it without reaching the classifier's features.
"""

from __future__ import annotations

import numpy as np


def byte_counts(raw: bytes) -> np.ndarray:
    """Occurrences of each byte value 0..255, as float64."""
    return np.bincount(np.frombuffer(raw, dtype=np.uint8), minlength=256).astype(np.float64)


def shannon_entropy(data: bytes) -> float:
    """Byte-level Shannon entropy in bits (0..8)."""
    if not data:
        return 0.0
    counts = byte_counts(data)
    p = counts[counts > 0] / len(data)
    return float(-(p * np.log2(p)).sum())
