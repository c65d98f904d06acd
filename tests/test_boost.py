"""``fit_stumps`` against its reference: the same stumps bit for bit.

The reference (``boost_reference.fit_stumps``) is the row-major booster kept
verbatim.  Every case compares ``bias``, ``feature``, ``threshold``,
``left_value`` and ``right_value`` by their bytes, so a change in the order
of any floating-point sum, or in which of two equal gains wins, fails here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import boost_reference
from amg import pe_model
from amg.detector import boost
from amg.detector.boost import fit_stumps
from amg.detector.features import extract_features_bigram, extract_features_structural

FIELDS = ("feature", "threshold", "left_value", "right_value")


def _assert_same_model(X, y, **kw):
    new = fit_stumps(X, y, **kw)
    ref = boost_reference.fit_stumps(X, y, **kw)
    assert np.float64(new.bias).tobytes() == np.float64(ref.bias).tobytes()
    assert new.learning_rate == ref.learning_rate
    for name in FIELDS:
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    return ref


def _colsamples(d: int) -> list[float]:
    return [1.0, 0.5, 0.25, 1.0 / d]


def _mixed(seed: int, n: int = 40, d: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """Continuous, small-integer, duplicate and constant columns, with labels
    drawn from a noisy rule and mixed at an odd ratio."""
    rng = np.random.default_rng(seed)
    X = np.empty((n, d))
    X[:, 0::3] = rng.normal(size=(n, len(range(0, d, 3))))
    X[:, 1::3] = rng.integers(0, 4, size=(n, len(range(1, d, 3))))
    X[:, 2::3] = rng.exponential(size=(n, len(range(2, d, 3))))
    X[:, 5] = X[:, 1]  # a duplicate of an integer column
    X[:, 7] = X[:, 0]  # a duplicate of a continuous column
    X[:, 10] = 3.0  # constant
    score = X[:, 0] + 0.7 * X[:, 1] - X[:, 2] + rng.normal(scale=0.5, size=n)
    y = (score > np.quantile(score, 0.35)).astype(np.float64)
    return X, y


@pytest.mark.parametrize("seed", range(24))
def test_mixed_columns_match_reference(seed):
    X, y = _mixed(seed)
    for colsample in _colsamples(X.shape[1]):
        _assert_same_model(X, y, n_rounds=40, learning_rate=0.3, colsample=colsample, seed=seed)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_gains_worked_out_in_small_blocks_match_reference(block, monkeypatch):
    """Many blocks per round, with a short last block."""
    monkeypatch.setattr(boost, "BLOCK", block)
    for seed in range(4):
        X, y = _mixed(seed)
        for colsample in _colsamples(X.shape[1]):
            _assert_same_model(X, y, n_rounds=20, learning_rate=0.3, colsample=colsample, seed=seed)


@pytest.mark.parametrize("seed", range(16))
def test_tied_integer_columns_match_reference(seed):
    """Few distinct values and balanced labels: the first round's gradients
    are exactly +-0.5, so many cells share the highest gain."""
    rng = np.random.default_rng(1000 + seed)
    X = rng.integers(0, 3, size=(24, 9)).astype(np.float64)
    y = np.tile([0.0, 1.0], 12)
    for colsample in _colsamples(X.shape[1]):
        for l2 in (0.0, 1.0):
            _assert_same_model(X, y, n_rounds=25, learning_rate=1.0, l2=l2, colsample=colsample, seed=seed)


def test_two_rows_one_column():
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    for colsample in (1.0, 0.5, 0.25):
        ref = _assert_same_model(X, y, n_rounds=5, colsample=colsample, seed=3)
        assert ref.n_rounds == 5


def test_equal_gains_in_different_cells_go_to_the_first_in_row_major_order():
    """Column 0 splits only after position 2, column 1 only after position 0.
    Both splits cut off one label-1 row from a mirror-symmetric label run, so
    the gains are equal; the row-major winner is column 1 at position 0."""
    X = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 1.0]])
    y = np.array([1.0, 0.0, 0.0, 1.0])
    ref = _assert_same_model(X, y, n_rounds=1, learning_rate=1.0, l2=1.0)
    assert list(ref.feature) == [1]
    # mirrored columns and a reversed copy: ties across rows and columns
    rng = np.random.default_rng(5)
    col = rng.permutation(8).astype(np.float64)
    X = np.column_stack([col, -col, col, 7.0 - col])
    # in sorted order the labels read as a palindrome
    y = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0])[col.astype(int)]
    for colsample in _colsamples(X.shape[1]):
        _assert_same_model(X, y, n_rounds=6, learning_rate=1.0, colsample=colsample)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_run_that_stops_on_a_zero_gain_matches_reference():
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([1.0, 0.0, 1.0, 0.0])
    ref = _assert_same_model(X, y, n_rounds=10)
    assert ref.n_rounds == 0
    # A few stumps, then every split's gain is at most 1e-12 or not finite
    stopped = 0
    for seed in range(30):
        rng = np.random.default_rng(2000 + seed)
        X = rng.integers(0, 2, size=(16, 3)).astype(np.float64)
        y = (X[:, 0] > 0).astype(np.float64)
        y[:2] = [0.0, 1.0]
        for colsample in _colsamples(X.shape[1]):
            ref = _assert_same_model(X, y, n_rounds=60, learning_rate=1.0, l2=0.0, colsample=colsample, seed=seed)
            stopped += 0 < ref.n_rounds < 60
    assert stopped > 0


def test_all_unsplittable_matrix_gives_no_stumps():
    X = np.tile([2.0, -1.0, 0.5], (10, 1))
    y = np.array([0.0, 1.0] * 5)
    for colsample in _colsamples(X.shape[1]):
        ref = _assert_same_model(X, y, n_rounds=10, colsample=colsample, seed=1)
        assert ref.n_rounds == 0


def test_corpus_feature_rows_match_reference(mal_bytes, ben_bytes):
    rows = mal_bytes[:30] + ben_bytes[:20]
    y = np.array([1.0] * 30 + [0.0] * 20)
    XB = np.array([extract_features_bigram(r) for r in rows])
    XA = np.array([extract_features_structural(pe_model.parse(r), r) for r in rows])
    for seed in range(3):
        _assert_same_model(XB, y, n_rounds=30, colsample=0.25, seed=seed)
        _assert_same_model(XA, y, n_rounds=30, seed=seed)


# ---------------------------------------------------------------------------
# input checks


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_features_are_refused(bad):
    X, y = _mixed(0)
    X[3, 4] = bad
    with pytest.raises(ValueError, match="non-finite"):
        fit_stumps(X, y, n_rounds=3)


@pytest.mark.parametrize("colsample", [0.0, -0.5, 1.5, math.nan])
def test_colsample_outside_unit_interval_is_refused(colsample):
    X, y = _mixed(0)
    with pytest.raises(ValueError, match="colsample"):
        fit_stumps(X, y, n_rounds=3, colsample=colsample)


@pytest.mark.parametrize("l2", [-1e-9, -1.0, math.nan])
def test_negative_l2_is_refused(l2):
    X, y = _mixed(0)
    with pytest.raises(ValueError, match="l2"):
        fit_stumps(X, y, n_rounds=3, l2=l2)
