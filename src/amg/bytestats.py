"""Byte statistics shared by the detector features and the RL observation.

Both sides summarize raw bytes the same way, so the arithmetic lives here,
in a module that imports nothing from either side: the observation code can
use it without reaching the classifier's features.  That includes the one
rule by which both sides count a file again after an edit: find the window
where the bytes changed (:func:`changed_window`), take the old window's
counts away and add the new one's (:func:`recount`), and keep the counts
for the next file in a :class:`ByteCounts`.  The env and each detector own
their own counts; only the rule is shared.
"""

from __future__ import annotations

import numpy as np


def entropy_of_counts(counts: np.ndarray, n: int) -> float:
    """Shannon entropy in bits of ``n`` bytes whose value counts are ``counts``."""
    if not n:
        return 0.0
    p = counts[counts > 0] / n
    return float(-(p * np.log2(p)).sum())


def _byte_counts(view: np.ndarray) -> np.ndarray:
    return np.bincount(view, minlength=256)


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
    each = [_byte_counts(np.frombuffer(data, dtype=np.uint8)) for _, data in parts]
    view, outside, cursor = memoryview(raw), [], 0
    for offset, size in sorted((offset, len(data)) for offset, data in parts if offset is not None):
        if offset < cursor or offset + size > len(raw):
            raise ValueError(
                f"part [{offset}, {offset + size}) overlaps another or runs past {len(raw)} bytes"
            )
        outside.append(view[cursor:offset])
        cursor = offset + size
    outside.append(view[cursor:])
    total = _byte_counts(np.frombuffer(b"".join(outside), dtype=np.uint8))
    for (offset, _), counts in zip(parts, each):
        if offset is not None:
            total += counts
    return total.astype(np.float64), each


def recount(counts: np.ndarray, old, new, window: tuple[int, int] | None, count, reach: int) -> np.ndarray:
    """``count(new)``, given ``counts == count(old)`` and the ``(head, tail)``
    window :func:`changed_window` found between them, or None, for which
    ``new`` is counted in full.

    ``count`` maps a slice of ``old`` or ``new`` to an array of counts that
    add up over the items found in it, where an item that touches a changed
    byte lies within ``reach`` bytes of it: 0 for byte counts, 1 for byte
    pairs.  Only the window widened by ``reach`` on each side is counted
    again, in ``old`` and in ``new``.
    """
    if window is None:
        return count(new)
    head, tail = window
    lo = max(head - reach, 0)
    return counts - count(old[lo : len(old) - tail + reach]) + count(new[lo : len(new) - tail + reach])


class ByteCounts:
    """Whole-file byte counts and section entropies of the last bytes counted,
    carried to the next ones.

    :meth:`update` counts again only the window where the bytes changed, and
    reuses a section's entropy while the payload at the same index equals
    the one counted last (an image copy shares the payload ``bytes`` of
    every section a rewrite left alone, so ``==`` returns at the identity
    check).  A new object starts from nothing, so its first update counts
    every byte.  After an update, ``raw`` holds the bytes counted,
    ``counts`` their 256 byte counts (float64) and ``entropies`` the
    entropy of each section payload in table order (0.0 for an empty one).
    """

    def __init__(self) -> None:
        self.raw = b""
        self.counts = np.zeros(256, dtype=np.float64)
        self.entropies: list[float] = []
        self._payloads: list[bytes] = []

    def update(self, raw: bytes, parts: list[tuple[int | None, bytes]]) -> tuple[int, int] | None:
        """Count ``raw``, whose sections are ``parts`` as
        :func:`segment_counts` takes them, from the last bytes counted.
        Returns the window :func:`changed_window` found, or None when every
        byte was counted."""
        payloads = [data for _, data in parts]
        stale = [
            i for i, data in enumerate(payloads)
            if i >= len(self._payloads) or self._payloads[i] != data
        ]
        old, new = np.frombuffer(self.raw, dtype=np.uint8), np.frombuffer(raw, dtype=np.uint8)
        window = changed_window(old, new)
        if window is None:
            counts, fresh = segment_counts(raw, [parts[i] for i in stale])
        else:
            counts = recount(self.counts, old, new, window, _byte_counts, 0)
            fresh = [_byte_counts(np.frombuffer(payloads[i], dtype=np.uint8)) for i in stale]
        entropies = self.entropies[: len(payloads)]
        entropies += [0.0] * (len(payloads) - len(entropies))
        for i, c in zip(stale, fresh):
            entropies[i] = entropy_of_counts(c, len(payloads[i]))
        self.raw, self.counts, self.entropies, self._payloads = raw, counts, entropies, payloads
        return window
