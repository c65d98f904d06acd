"""Gradient-boosted decision stumps with logistic loss.

Each round fits one depth-1 split by exhaustive threshold search over a
(possibly subsampled) set of feature columns, using second-order statistics:
split gain and leaf values come from the gradient/Hessian sums of the
logistic loss, so a leaf's value is a regularized Newton step
``sum(g) / (sum(h) + l2)``.  Rounds are combined additively with shrinkage.

Columns are argsorted once and kept transposed, one contiguous row per
feature of ``order``, sorted values and ``splittable`` flags.  A round
gathers each sampled column's gradients and Hessians as complex numbers
``g + 1j*h`` and sums them along the row (complex addition adds each part on
its own), works out the gain only where a split is possible, with the same
floating-point operations in the same order as over the full table, a
block of splits at a time in buffers made once per fit, and takes the first
of the best gains in (position, column) order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Splits whose gains are worked out together in ``fit_stumps``' scratch buffers.
BLOCK = 8192


@dataclass
class BoostedStumps:
    bias: float
    learning_rate: float
    feature: np.ndarray
    threshold: np.ndarray
    left_value: np.ndarray
    right_value: np.ndarray

    @property
    def n_rounds(self) -> int:
        return len(self.feature)

    def margin_one(self, x: np.ndarray) -> float:
        """Score a single row without the batch loop (fancy-indexed over rounds)."""
        if self.n_rounds == 0:
            return float(self.bias)
        picks = np.where(x[self.feature] <= self.threshold, self.left_value, self.right_value)
        return float(self.bias + self.learning_rate * picks.sum())


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _split_gains(
    sums: np.ndarray, at: np.ndarray, l2: float, gain: np.ndarray, scratch: tuple
) -> np.ndarray:
    """``gl**2 / (hl + l2) + gr**2 / (hr + l2) - g**2 / (h + l2)`` at each split
    ``at`` (flat indices into ``sums``), written into ``gain`` a block of
    splits at a time through the block-sized ``scratch`` buffers."""
    total = sums[:, -1]
    unsplit = total.real**2 / (total.imag + l2)
    step = len(scratch[0])
    for lo in range(0, at.size, step):
        part = at[lo : lo + step]
        left, right, slot, spare = (buf[: part.size] for buf in scratch)
        out = gain[lo : lo + part.size]
        np.take(sums, part, out=left, mode="clip")
        np.floor_divide(part, sums.shape[1], out=slot)
        np.take(total, slot, out=right, mode="clip")
        np.subtract(right, left, out=right)
        gl, hl, gr, hr = left.real, left.imag, right.real, right.imag
        np.multiply(gl, gl, out=out)
        np.add(hl, l2, out=spare)
        np.divide(out, spare, out=out)
        np.multiply(gr, gr, out=spare)
        np.add(hr, l2, out=hr)
        np.divide(spare, hr, out=spare)
        np.add(out, spare, out=out)
        np.take(unsplit, slot, out=spare, mode="clip")
        np.subtract(out, spare, out=out)
    return gain[: at.size]


def fit_stumps(
    X: np.ndarray,
    y: np.ndarray,
    *,
    n_rounds: int,
    learning_rate: float,
    l2: float,
    colsample: float,
    seed: int,
) -> BoostedStumps:
    """Fit a boosted-stump classifier to rows ``X`` and 0/1 labels ``y``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    if n != len(y):
        raise ValueError("X and y disagree on the number of rows")
    if not np.isfinite(X).all():
        raise ValueError("X holds a non-finite value")
    if not 0.0 < colsample <= 1.0:
        raise ValueError(f"colsample must lie in (0, 1], got {colsample}")
    if not l2 >= 0.0:
        raise ValueError(f"l2 must be non-negative, got {l2}")
    pos = float(y.sum())
    neg = float(n - pos)
    if pos == 0 or neg == 0:
        raise ValueError("both labels are required to fit a classifier")

    X_sorted = np.ascontiguousarray(X.T)
    order = np.argsort(X_sorted, axis=1, kind="stable")
    X_sorted.sort(axis=1, kind="stable")
    # the last position never splits, so rows of sums and of flags line up
    splittable = np.zeros((d, n), dtype=bool)
    np.less(X_sorted[:, :-1], X_sorted[:, 1:], out=splittable[:, :-1])
    n_splittable = splittable.sum(axis=1)

    rng = np.random.default_rng(seed)
    n_cols = max(1, int(round(colsample * d)))

    bias = float(np.log(max(pos, 1.0) / max(neg, 1.0)))
    margin = np.full(n, bias)
    feats: list[int] = []
    thrs: list[float] = []
    lefts: list[float] = []
    rights: list[float] = []

    gh = np.empty(n, dtype=np.complex128)
    sums = np.empty((n_cols, n), dtype=np.complex128)
    if n_cols == d:
        cols, rows = np.arange(d), order
        at = np.flatnonzero(splittable)
    else:
        rows = np.empty((n_cols, n), dtype=order.dtype)
    # room for the most splits a round can have; the other buffers hold one
    # block, so no round allocates anything large
    gain_buf = np.empty(int(np.sort(n_splittable)[d - n_cols :].sum()))
    block = min(gain_buf.size, BLOCK)
    kinds = (np.complex128, np.complex128, np.intp, np.float64)
    scratch = tuple(np.empty(block, dtype=kind) for kind in kinds)

    for _ in range(n_rounds):
        p = _sigmoid(margin)
        gh.real = y - p
        gh.imag = p * (1.0 - p)
        if n_cols != d:
            cols = np.sort(rng.choice(d, size=n_cols, replace=False))
            np.take(order, cols, axis=0, out=rows, mode="clip")
            at = np.flatnonzero(splittable[cols])
        if at.size == 0:
            break
        np.take(gh, rows, out=sums, mode="clip")
        np.cumsum(sums, axis=1, out=sums)
        gain = _split_gains(sums, at, l2, gain_buf, scratch)
        best_gain = gain.max()
        if not np.isfinite(best_gain) or best_gain <= 1e-12:
            break
        # of equal gains the first in (position, column) order wins, as in
        # an argmax over the row-major table of positions by columns
        slots, positions = np.divmod(at[gain == best_gain], n)
        pick = int(np.argmin(positions * n_cols + slots))
        slot, row = int(slots[pick]), int(positions[pick])
        col = int(cols[slot])
        threshold = float((X_sorted[col, row] + X_sorted[col, row + 1]) / 2.0)
        g_left, h_left = sums[slot, row].real, sums[slot, row].imag
        g_all, h_all = sums[slot, -1].real, sums[slot, -1].imag
        left_value = float(g_left / (h_left + l2))
        right_value = float((g_all - g_left) / ((h_all - h_left) + l2))
        feats.append(col)
        thrs.append(threshold)
        lefts.append(left_value)
        rights.append(right_value)
        margin += learning_rate * np.where(X[:, col] <= threshold, left_value, right_value)

    return BoostedStumps(
        bias=bias,
        learning_rate=learning_rate,
        feature=np.asarray(feats, dtype=np.int32),
        threshold=np.asarray(thrs, dtype=np.float64),
        left_value=np.asarray(lefts, dtype=np.float64),
        right_value=np.asarray(rights, dtype=np.float64),
    )
