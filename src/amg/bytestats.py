"""Byte statistics shared by the detector features and the RL observation.

Both sides summarize raw bytes the same way, so the arithmetic lives here,
in a module that imports nothing from either side: the observation code can
use it without reaching the classifier's features.
"""

from __future__ import annotations

import numpy as np


def entropy_of_counts(counts: np.ndarray, n: int) -> float:
    """Shannon entropy in bits of ``n`` bytes whose value counts are ``counts``."""
    if not n:
        return 0.0
    p = counts[counts > 0] / n
    return float(-(p * np.log2(p)).sum())


def segment_counts(raw: bytes, parts: list[tuple[int | None, bytes]]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Byte counts of ``raw`` and of each part, reading every byte once.

    A part is ``(offset, data)`` where ``data`` is ``raw[offset:offset +
    len(data)]``, or ``(None, data)`` for bytes that are not in ``raw``;
    parts in ``raw`` must not overlap.  The whole-file counts are the sum of
    the in-file parts' counts and the counts of the bytes outside them, so
    they equal the byte counts of all of ``raw`` exactly.  Returns the whole
    counts as float64 and each part's counts as integers, in ``parts`` order.
    Raises ``ValueError`` for an in-file part that overlaps another or runs
    past the end of ``raw``; that its bytes match ``raw`` is not checked.
    """
    each = [np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256) for _, data in parts]
    view, outside, cursor = memoryview(raw), [], 0
    for offset, size in sorted((offset, len(data)) for offset, data in parts if offset is not None):
        if offset < cursor or offset + size > len(raw):
            raise ValueError(
                f"part [{offset}, {offset + size}) overlaps another or runs past {len(raw)} bytes"
            )
        outside.append(view[cursor:offset])
        cursor = offset + size
    outside.append(view[cursor:])
    total = np.bincount(np.frombuffer(b"".join(outside), dtype=np.uint8), minlength=256)
    for (offset, _), counts in zip(parts, each):
        if offset is not None:
            total += counts
    return total.astype(np.float64), each
