"""Whole-buffer byte statistics, the oracles for ``amg.bytestats``: the
segment counts must sum to these counts, and the entropy derived from them
must equal this entropy."""

from __future__ import annotations

import numpy as np


def byte_counts(raw: bytes) -> np.ndarray:
    """Occurrences of each byte value 0..255, as float64."""
    return np.bincount(np.frombuffer(raw, dtype=np.uint8), minlength=256).astype(np.float64)


def shannon_entropy(data: bytes) -> float:
    """Byte-level Shannon entropy in bits (0..8)."""
    if not data:
        return 0.0
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    p = counts[counts > 0] / len(data)
    return float(-(p * np.log2(p)).sum())
