"""Feature maps, stump boosting, and the hard-label classifier wrapper."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amg import detector, pe_model
from amg.bytestats import entropy_of_counts
from amg.detector import (
    DegenerateCorpus,
    Detector,
    DetectorFormatError,
    DetectorKind,
    Verdict,
    evaluate_accuracy,
    parse_kind,
    train_detector,
)
from amg.detector.boost import BoostedStumps, fit_stumps
from amg.detector.features import (
    BIGRAM_WINDOW,
    N_FEATURES_BIGRAM,
    N_FEATURES_STRUCTURAL,
    BigramCounts,
    StructuralCounts,
    bigram_buckets,
    extract_features_bigram,
    extract_features_structural,
)
from amg.pe_mods import ActionId, apply_action
from amg.signals import MOTIF_LEN, MOTIFS, count_motif_hits
import session_data
from boost_reference import FIT, margin
from bytestats_reference import byte_counts, shannon_entropy
from fuzzing import damaged


# ---------------------------------------------------------------------------
# feature maps


def test_structural_feature_vector_shape_and_range(mal_bytes):
    for raw in mal_bytes[:10]:
        img = pe_model.parse(raw)
        x = extract_features_structural(img, raw, StructuralCounts())
        assert x.shape == (N_FEATURES_STRUCTURAL,)
        assert x.dtype == np.float64
        assert np.all(np.isfinite(x))


def test_structural_checksum_and_timestamp_slots(corpus_files):
    for f in corpus_files[:40]:
        img = pe_model.parse(f.data)
        x = extract_features_structural(img, f.data, StructuralCounts())
        assert x[0] == (1.0 if img.optional.checksum == 0 else 0.0)
        assert x[1] == pytest.approx(img.coff.time_date_stamp / 2**32)
        assert x[4] == (1.0 if img.directory(6).rva else 0.0)
        assert x[5] == (1.0 if img.directory(4).rva else 0.0)


def test_bigram_histogram_is_l1_normalized(mal_bytes):
    x = extract_features_bigram(mal_bytes[0], BigramCounts())
    assert x.shape == (N_FEATURES_BIGRAM,)
    assert x.sum() == pytest.approx(1.0)
    assert np.all(x >= 0)


def test_bigram_window_ignores_bytes_past_64k():
    head = bytes(range(256)) * 300  # > 65,536 bytes
    a = extract_features_bigram(head, BigramCounts())
    b = extract_features_bigram(head + b"\xAB\xCD" * 5000, BigramCounts())
    assert np.array_equal(a, b)
    # the final in-window byte (index 65,535) still participates ...
    last_in = head[: BIGRAM_WINDOW - 1] + b"\x00" + head[BIGRAM_WINDOW:]
    assert not np.array_equal(a, extract_features_bigram(last_in, BigramCounts()))
    # ... and the first out-of-window byte does not
    first_out = head[:BIGRAM_WINDOW] + b"\x00" + head[BIGRAM_WINDOW + 1 :]
    assert np.array_equal(a, extract_features_bigram(first_out, BigramCounts()))


def test_bigram_bucket_arithmetic():
    x = extract_features_bigram(b"\x01\x02", BigramCounts())
    assert x[((0x01 << 8) | 0x02) % N_FEATURES_BIGRAM] == 1.0
    assert x.sum() == 1.0


def test_bigram_of_tiny_input_is_zero_vector():
    assert extract_features_bigram(b"", BigramCounts()).sum() == 0.0
    assert extract_features_bigram(b"A", BigramCounts()).sum() == 0.0


def _bigram_modulo(raw: bytes) -> np.ndarray:
    """``extract_features_bigram`` as written with the ``% N_FEATURES_BIGRAM``
    bucket index, kept verbatim as the oracle of the masked index."""
    window = np.frombuffer(raw[:BIGRAM_WINDOW], dtype=np.uint8)
    x = np.zeros(N_FEATURES_BIGRAM, dtype=np.float64)
    if window.size < 2:
        return x
    idx = ((window[:-1].astype(np.int32) << 8) | window[1:]) % N_FEATURES_BIGRAM
    counts = np.bincount(idx, minlength=N_FEATURES_BIGRAM).astype(np.float64)
    total = counts.sum()
    if total > 0:
        counts /= total
    x[:] = counts
    return x


def test_bigram_index_equals_the_modulo_formula(corpus_files):
    # Every pair (a, b) sits at an even offset of the interleaved window.
    a, b = np.divmod(np.arange(256 * 256), 256)
    window = np.column_stack([a, b]).astype(np.uint8).ravel()
    modulo = ((window[:-1].astype(np.int32) << 8) | window[1:]) % N_FEATURES_BIGRAM
    assert np.array_equal(bigram_buckets(window), modulo)
    noise = np.random.default_rng(0).integers(0, 256, BIGRAM_WINDOW + 1, dtype=np.uint8)
    edges = [b"", b"\x07", b"\x07\xff", noise[:BIGRAM_WINDOW].tobytes(), noise.tobytes()]
    for raw in edges + [f.data for f in corpus_files]:
        assert np.array_equal(extract_features_bigram(raw, BigramCounts()), _bigram_modulo(raw))


def test_shannon_entropy_extremes():
    for data, expected in ((b"", 0.0), (b"\x00" * 4096, 0.0), (bytes(range(256)) * 16, 8.0)):
        assert shannon_entropy(data) == pytest.approx(expected)
        assert entropy_of_counts(byte_counts(data), len(data)) == shannon_entropy(data)


def _motif_inputs(corpus_files):
    yield from (f.data for f in corpus_files)
    m = MOTIFS
    yield from (b"", m[3][:15], m[3][1:], m[3], b"\x01" + m[3], b"\x01" * 100 + m[31])
    yield m[5] * 4 + m[5][:8] + m[5] * 2  # back-to-back, then a broken copy
    yield b"".join(m)  # every motif once, back to back
    # Motif 2 ends with the byte motif 27 starts with, and 6 with 15's first.
    for a, b in ((2, 27), (6, 15)):
        yield m[a][:-1] + m[b]  # sharing the boundary byte: only the second is whole
        yield m[a] + m[b][1:]  # only the first is whole
        yield m[a] + m[b]
        yield b"\x00" * 7 + (m[a][:-1] + m[b]) * 3 + m[a]


def test_motif_scan_matches_bytes_count(corpus_files):
    for data in _motif_inputs(corpus_files):
        assert count_motif_hits(data) == [data.count(m) for m in MOTIFS]


def _has_border(motif: bytes) -> bool:
    """Whether a proper prefix of ``motif`` equals its suffix of the same length."""
    return any(motif[:k] == motif[-k:] for k in range(1, len(motif)))


def test_no_motif_has_a_border():
    """Two occurrences of one motif overlap only if it has a border, so
    without one a changed file's motif count can be updated over the
    changed bytes widened by ``MOTIF_LEN - 1`` (see ``count_motif_hits``)."""
    assert _has_border(b"ab" + bytes(12) + b"ab")
    assert _has_border(b"\x05" * MOTIF_LEN)
    assert _has_border(b"abcab")
    assert not _has_border(bytes(range(MOTIF_LEN)))
    assert all(len(m) == MOTIF_LEN for m in MOTIFS)
    assert [m for m in MOTIFS if _has_border(m)] == []


# ---------------------------------------------------------------------------
# boosting


def test_stump_fit_on_hand_separable_column():
    """One informative column: values 1,2,3,4 with labels 0,0,1,1. The first
    stump must split between 2 and 3 and vote negative left, positive right."""
    X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    model = fit_stumps(X, y, **FIT | dict(n_rounds=1, learning_rate=1.0, l2=0.0))
    assert model.feature[0] == 0
    assert model.threshold[0] == pytest.approx(2.5)
    assert model.left_value[0] < 0 < model.right_value[0]


def test_boosting_drives_training_loss_down():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(80, 6))
    y = (X[:, 2] + 0.5 * X[:, 4] > 0).astype(float)

    def logloss(model):
        m = margin(model, X)
        return float(np.mean(np.log1p(np.exp(-np.where(y > 0, m, -m)))))

    losses = [
        logloss(fit_stumps(X, y, **FIT | dict(n_rounds=r, learning_rate=0.3, seed=1)))
        for r in (1, 5, 25, 100)
    ]
    assert losses == sorted(losses, reverse=True)
    assert losses[-1] < 0.1


def test_margin_one_agrees_with_batch_margin(mal_bytes, ben_bytes):
    X = np.array([extract_features_bigram(r, BigramCounts()) for r in mal_bytes[:10] + ben_bytes[:10]])
    y = np.array([1.0] * 10 + [0.0] * 10)
    model = fit_stumps(X, y, **FIT | dict(n_rounds=30, learning_rate=0.2, seed=3))
    batch = margin(model, X)
    singles = np.array([model.margin_one(row) for row in X])
    assert np.allclose(batch, singles)


def test_margin_matches_independent_stump_walk(mal_bytes, ben_bytes):
    """Recompute the ensemble sum with a plain Python loop over the stump
    table; the vectorized scorer must agree exactly."""
    X = np.array([extract_features_bigram(r, BigramCounts()) for r in mal_bytes[:8] + ben_bytes[:8]])
    y = np.array([1.0] * 8 + [0.0] * 8)
    model = fit_stumps(X, y, **FIT | dict(n_rounds=20, learning_rate=0.2, seed=5))
    for row in X:
        expected = model.bias
        for f, th, lv, rv in zip(
            model.feature, model.threshold, model.left_value, model.right_value
        ):
            expected += model.learning_rate * (lv if row[f] <= th else rv)
        assert model.margin_one(row) == pytest.approx(expected, rel=1e-12)


def test_single_label_training_is_degenerate(mal_bytes):
    samples = [(raw, 1) for raw in mal_bytes[:8]]
    with pytest.raises(DegenerateCorpus):
        train_detector(DetectorKind.STRUCTURAL, samples, seed=0)


# ---------------------------------------------------------------------------
# detector wrapper


def test_kind_aliases():
    assert parse_kind("a") is DetectorKind.STRUCTURAL
    assert parse_kind("structural") is DetectorKind.STRUCTURAL
    assert parse_kind("B") is DetectorKind.BIGRAM
    with pytest.raises(ValueError):
        parse_kind("c")


def test_holdout_accuracy_gate(world):
    held = [(r, 1) for r in world.mal_val + world.mal_test]
    held += [(r, 0) for r in world.ben_val + world.ben_test]
    assert evaluate_accuracy(world.detector_a, held) >= 0.95
    assert evaluate_accuracy(world.detector_b, held) >= 0.95


def test_training_is_seed_deterministic(mal_bytes, ben_bytes):
    samples = [(r, 1) for r in mal_bytes[:30]] + [(r, 0) for r in ben_bytes[:20]]
    a = train_detector(DetectorKind.BIGRAM, samples, seed=9)
    b = train_detector(DetectorKind.BIGRAM, samples, seed=9)
    assert np.array_equal(a.model.feature, b.model.feature)
    assert np.array_equal(a.model.threshold, b.model.threshold)
    assert a.score(mal_bytes[31]) == b.score(mal_bytes[31])


def test_unparseable_input_is_malicious(world):
    for det in (world.detector_a, world.detector_b):
        assert det.classify(b"MZ but not really a file") is Verdict.MALICIOUS
        assert det.score(b"\x00" * 50) == math.inf


def test_zero_margin_reads_benign(ben_bytes):
    """Margin must be strictly positive to read Malicious; an empty ensemble
    scores every parseable file at exactly zero."""
    empty = BoostedStumps(
        bias=0.0,
        learning_rate=0.1,
        feature=np.zeros(0, dtype=np.uint32),
        threshold=np.zeros(0),
        left_value=np.zeros(0),
        right_value=np.zeros(0),
    )
    det = Detector(DetectorKind.BIGRAM, empty)
    assert det.score(ben_bytes[0]) == 0.0
    assert det.classify(ben_bytes[0]) is Verdict.BENIGN


def test_save_load_round_trip(world, mal_bytes, tmp_path):
    for name, det in (("a", world.detector_a), ("b", world.detector_b)):
        unqueried = det.fresh()
        path = tmp_path / f"{name}.det"
        unqueried.save(path)
        blob = path.read_bytes()
        loaded = Detector.load(path)
        assert loaded.kind is det.kind
        for raw in mal_bytes[:10]:
            assert loaded.score(raw) == unqueried.score(raw)
        # the memo is never written: answering queries leaves the file as it was
        unqueried.save(path)
        assert path.read_bytes() == blob
        assert not Detector.load(path)._memo


def test_trained_detectors_match_golden(world, tmp_path):
    """Both detectors of the session world (corpus ``UNIT_SPEC``, world seed
    1), pinned by the SHA-256 of their saved files; captured before
    ``fit_stumps`` kept its columns transposed.  A change that moves them
    re-captures the file and says why."""
    got = {}
    for det in (world.detector_a, world.detector_b):
        path = tmp_path / f"{det.kind.value}.det"
        det.save(path)
        got[det.kind.value] = hashlib.sha256(path.read_bytes()).hexdigest()
    golden = Path(__file__).parent / "golden" / "detectors.json"
    assert got == json.loads(golden.read_text())


# ---------------------------------------------------------------------------
# the margin memo


@pytest.mark.parametrize("name", ["detector_a", "detector_b"])
def test_memoized_margins_equal_unmemoized(world, mal_bytes, pool, monkeypatch, name):
    det = getattr(world, name)
    img = pe_model.parse(mal_bytes[0])
    rewrites = [
        pe_model.serialize(apply_action(img.copy(), action, pool, seed=3).image)
        for action in ActionId
    ]
    flipped = bytearray(mal_bytes[1])
    flipped[len(flipped) // 2] ^= 0xFF
    flipped = bytes(flipped)
    appended = mal_bytes[1] + b"\x00"
    inputs = mal_bytes[:8] + rewrites + [flipped, appended, b"MZ junk"]
    expected = [det.fresh().score(raw) for raw in inputs]
    assert expected[-1] == math.inf
    assert all(math.isfinite(m) for m in expected[:-1])

    extracted, carries = [], []
    features = detector._features

    def counting(kind, raw, img=None, carry=None):
        extracted.append(raw)
        carries.append(carry)
        return features(kind, raw, img, carry)

    monkeypatch.setattr(detector, "_features", counting)
    memoized = det.fresh()
    assert [memoized.score(raw) for raw in inputs] == expected
    # every miss counts from the detector's own carried counts
    assert carries and all(carry is memoized._carry for carry in carries)
    # one extraction per distinct parsable content; the one-byte changes are new contents
    assert len(extracted) == len(set(inputs[:-1]))
    assert flipped in extracted and appended in extracted
    # repeats, unparsable bytes included, are answered without extracting again
    assert [memoized.score(raw) for raw in reversed(inputs)] == expected[::-1]
    assert len(extracted) == len(set(inputs[:-1]))


def test_memo_is_bounded_least_recently_used_first(world, mal_bytes, monkeypatch):
    """Each detector's margin memo is bounded by ``MEMO_ENTRIES``; the memo's
    own order and counts are tested in ``test_memo``."""
    monkeypatch.setattr(detector, "MEMO_ENTRIES", 8)
    inputs = mal_bytes[:20]
    assert len(set(inputs)) == 20
    for det in (world.detector_a, world.detector_b):
        memoized = det.fresh()
        margins = [memoized.score(raw) for raw in inputs]
        assert (memoized._memo.entries, len(memoized._memo)) == (8, 8)
        assert [memoized.score(raw) for raw in inputs[-8:]] == margins[-8:]
        assert (memoized._memo.hits, memoized._memo.misses) == (8, 20)
        # an evicted content is scored again, to the same margin
        assert memoized.score(inputs[0]) == margins[0]
        assert memoized._memo.misses == 21


def test_load_rejects_foreign_and_truncated_files(world, tmp_path):
    path = tmp_path / "det.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(DetectorFormatError):
        Detector.load(path)
    good = tmp_path / "good.det"
    world.detector_a.save(good)
    blob = good.read_bytes()
    bad = tmp_path / "short.det"
    bad.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(DetectorFormatError):
        Detector.load(bad)


def test_load_rejects_out_of_range_stump_index(world, tmp_path):
    good = tmp_path / "good.det"
    world.detector_a.save(good)
    blob = good.read_bytes()
    head_size = struct.calcsize("<8sBII d d")
    for index in (N_FEATURES_STRUCTURAL, 0xFFFF_FFFF):
        bad = tmp_path / f"index-{index}.det"
        bad.write_bytes(blob[:head_size] + struct.pack("<I", index) + blob[head_size + 4 :])
        with pytest.raises(DetectorFormatError, match="out of range"):
            Detector.load(bad)


@pytest.fixture(scope="module")
def saved_detectors(world, tmp_path_factory):
    """A directory holding detectors A and B, fresh, as ``0.det`` and ``1.det``."""
    root = tmp_path_factory.mktemp("detector-fuzz")
    for which, det in enumerate((world.detector_a, world.detector_b)):
        det.fresh().save(root / f"{which}.det")
    return root


def _at(values: np.ndarray, index: int, value: float) -> np.ndarray:
    out = values.copy()
    out[index] = value
    return out


@pytest.mark.parametrize(
    "changes, match",
    [
        (lambda m: {"bias": math.nan}, "non-finite"),
        (lambda m: {"bias": -math.inf}, "non-finite"),
        (lambda m: {"learning_rate": math.nan}, "non-finite"),
        (lambda m: {"threshold": _at(m.threshold, 3, math.nan)}, "non-finite"),
        (lambda m: {"threshold": _at(m.threshold, 0, math.inf)}, "non-finite"),
        (lambda m: {"left_value": _at(m.left_value, 0, math.inf)}, "non-finite"),
        (lambda m: {"right_value": _at(m.right_value, -1, math.nan)}, "non-finite"),
        # every parameter finite, but some row's margin is not
        (lambda m: {"learning_rate": 1e308}, "overflow"),
        (lambda m: {"left_value": np.full(m.n_rounds, 1e307)}, "overflow"),
        (lambda m: {"bias": sys.float_info.max, "learning_rate": 1e300}, "overflow"),
    ],
    ids=[
        "nan-bias", "inf-bias", "nan-learning-rate", "nan-threshold", "inf-threshold",
        "inf-left", "nan-right", "huge-learning-rate", "huge-leaves", "huge-bias",
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_load_rejects_non_finite_or_overflowing_models(world, tmp_path, changes, match):
    model = world.detector_b.model
    path = tmp_path / "bad.det"
    Detector(DetectorKind.BIGRAM, dataclasses.replace(model, **changes(model))).save(path)
    with pytest.raises(DetectorFormatError, match=match):
        Detector.load(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=120, deadline=None)
@given(data=st.data(), which=st.integers(0, 1))
def test_property_damaged_detector_loads_or_raises(saved_detectors, data, which):
    blob = (saved_detectors / f"{which}.det").read_bytes()
    path = saved_detectors / "damaged.det"
    path.write_bytes(data.draw(damaged(blob, struct.calcsize("<8sBII d d") + 8)))
    try:
        loaded = Detector.load(path)
    except DetectorFormatError:
        return
    assert loaded.classify(session_data.mal_bytes()[0]) in (Verdict.MALICIOUS, Verdict.BENIGN)
