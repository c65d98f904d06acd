"""Reference booster: ``fit_stumps`` as it was before it kept its columns
transposed, kept verbatim as the oracle the new one must agree with bit for
bit (same stumps, thresholds and leaf values), and the batch scorer
``margin``, which nothing in ``amg`` calls.

The reference gathers each round's gradients into an (n, columns) table,
takes ``np.cumsum`` down it, works out the gain at every position, masks the
positions between equal values and takes a row-major ``argmax``.
"""

from __future__ import annotations

import numpy as np

from amg.detector.boost import BoostedStumps

#: The settings ``fit_stumps`` took when it had defaults, and this reference
#: still takes; a test passes these with what it varies laid over them.
FIT = dict(n_rounds=200, learning_rate=0.1, l2=1.0, colsample=1.0, seed=0)


def margin(model: BoostedStumps, X: np.ndarray) -> np.ndarray:
    """Additive scores for a batch of rows; positive means class 1."""
    X = np.asarray(X, dtype=np.float64)
    out = np.full(X.shape[0], model.bias)
    for f, t, lv, rv in zip(model.feature, model.threshold, model.left_value, model.right_value):
        out += model.learning_rate * np.where(X[:, f] <= t, lv, rv)
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def fit_stumps(
    X: np.ndarray,
    y: np.ndarray,
    n_rounds: int = 200,
    learning_rate: float = 0.1,
    l2: float = 1.0,
    colsample: float = 1.0,
    seed: int = 0,
) -> BoostedStumps:
    """Fit a boosted-stump classifier to rows ``X`` and 0/1 labels ``y``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    if n != len(y):
        raise ValueError("X and y disagree on the number of rows")
    pos = float(y.sum())
    neg = float(n - pos)
    if pos == 0 or neg == 0:
        raise ValueError("both labels are required to fit a classifier")

    order = np.argsort(X, axis=0, kind="stable")
    X_sorted = np.take_along_axis(X, order, axis=0)
    # splits between equal sorted values are meaningless
    splittable = X_sorted[:-1, :] < X_sorted[1:, :]

    rng = np.random.default_rng(seed)
    n_cols = max(1, int(round(colsample * d)))

    bias = float(np.log(max(pos, 1.0) / max(neg, 1.0)))
    margin = np.full(n, bias)
    feats: list[int] = []
    thrs: list[float] = []
    lefts: list[float] = []
    rights: list[float] = []

    for _ in range(n_rounds):
        p = _sigmoid(margin)
        g = y - p
        h = p * (1.0 - p)
        cols = (
            np.arange(d)
            if n_cols == d
            else np.sort(rng.choice(d, size=n_cols, replace=False))
        )
        g_sorted = g[order[:, cols]]
        h_sorted = h[order[:, cols]]
        gl = np.cumsum(g_sorted, axis=0)[:-1, :]
        hl = np.cumsum(h_sorted, axis=0)[:-1, :]
        g_total = gl[-1, :] + g_sorted[-1, :]
        h_total = hl[-1, :] + h_sorted[-1, :]
        gr = g_total[None, :] - gl
        hr = h_total[None, :] - hl
        gain = gl**2 / (hl + l2) + gr**2 / (hr + l2) - (g_total**2 / (h_total + l2))[None, :]
        gain[~splittable[:, cols]] = -np.inf
        flat = int(np.argmax(gain))
        best_gain = gain.flat[flat]
        if not np.isfinite(best_gain) or best_gain <= 1e-12:
            break
        row, col_i = divmod(flat, len(cols))
        col = int(cols[col_i])
        threshold = float((X_sorted[row, col] + X_sorted[row + 1, col]) / 2.0)
        left = float(gl[row, col_i] / (hl[row, col_i] + l2))
        right = float(gr[row, col_i] / (hr[row, col_i] + l2))
        feats.append(col)
        thrs.append(threshold)
        lefts.append(left)
        rights.append(right)
        margin += learning_rate * np.where(X[:, col] <= threshold, left, right)

    return BoostedStumps(
        bias=bias,
        learning_rate=learning_rate,
        feature=np.asarray(feats, dtype=np.int32),
        threshold=np.asarray(thrs, dtype=np.float64),
        left_value=np.asarray(lefts, dtype=np.float64),
        right_value=np.asarray(rights, dtype=np.float64),
    )
