"""Byte statistics shared by the detector features and the RL observation.

Both sides summarize raw bytes the same way, so the arithmetic lives here,
in a module that imports nothing from either side: the observation code can
use it without reaching the classifier's features.  That includes the one
rule by which both sides count a file again after an edit,
:func:`changed_window`: the env and each detector keep their own counts of
the last bytes they counted, and share only this rule, never the counts.
"""

from __future__ import annotations

import numpy as np


def entropy_of_counts(counts: np.ndarray, n: int) -> float:
    """Shannon entropy in bits of ``n`` bytes whose value counts are ``counts``."""
    if not n:
        return 0.0
    p = counts[counts > 0] / n
    return float(-(p * np.log2(p)).sum())


def changed_window(old: np.ndarray, new: np.ndarray) -> tuple[int, int] | None:
    """Where ``new`` differs from ``old`` (two uint8 arrays), as ``(head, tail)``.

    ``head`` is the length of the common prefix and ``tail`` that of the
    common suffix, which never reaches into the prefix, so ``old[head :
    len(old) - tail]`` became ``new[head : len(new) - tail]``.  Returns None
    when those two windows together are at least as long as ``new``: then
    counting ``new`` from scratch reads fewer bytes than updating the counts
    of ``old``.  An empty ``old`` always gives None.
    """
    n = min(len(old), len(new))
    head = _common_prefix(old[:n], new[:n])
    tail = _common_suffix(old[len(old) - n + head :], new[len(new) - n + head :])
    if len(old) + len(new) - 2 * (head + tail) >= len(new):
        return None
    return head, tail


#: Length of the first run :func:`_common_prefix` and :func:`_common_suffix`
#: compare; each later run is four times the one before.
_FIRST_RUN = 4096


def _common_prefix(a: np.ndarray, b: np.ndarray) -> int:
    """How many leading elements ``a`` and ``b`` (of equal length) share.

    Compares runs that grow fourfold, so the cost follows the prefix more
    than the length.
    """
    start, size = 0, _FIRST_RUN
    while start < len(a):
        end = start + size
        differ = a[start:end] != b[start:end]
        first = int(differ.argmax())
        if differ[first]:
            return start + first
        start, size = end, size * 4
    return len(a)


def _common_suffix(a: np.ndarray, b: np.ndarray) -> int:
    """How many trailing elements ``a`` and ``b`` (of equal length) share,
    compared in runs from the end as :func:`_common_prefix` compares them
    from the start."""
    end, size = len(a), _FIRST_RUN
    while end > 0:
        start = max(end - size, 0)
        differ = a[start:end] != b[start:end]
        if differ.any():  # searching a reversed view is slow, so only in this run
            return len(a) - end + int(differ[::-1].argmax())
        end, size = start, size * 4
    return len(a)


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
