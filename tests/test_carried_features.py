"""Each detector counts a miss from the counts carried from its last miss.

The carried counts must never show: every feature vector is bit-identical to
the one counted from every byte, and every margin to the margin of that
vector, whatever came before (another file, an unparseable input, a few
bytes) and wherever the bytes changed.
"""

from __future__ import annotations

import copy
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import session_data
from amg import detector, pe_model
from amg.detector import Detector, DetectorKind
from amg.detector.features import (
    BIGRAM_WINDOW,
    BigramCounts,
    StructuralCounts,
    extract_features_bigram,
)
from amg.pe_mods import ActionId, Outcome, apply_action
from amg.signals import MOTIF_LEN, MOTIFS

KINDS = [DetectorKind.STRUCTURAL, DetectorKind.BIGRAM]

#: Inputs no parse accepts: empty, shorter than a bigram, than a motif, and junk.
UNPARSEABLE = [b"", b"M", b"MZ", b"MZ" + bytes(12), bytes(range(15)), b"MZ junk", bytes(range(256)) * 3]


def _new_carry(kind: DetectorKind):
    return StructuralCounts() if kind is DetectorKind.STRUCTURAL else BigramCounts()


def _replay(det: Detector, inputs: list[bytes]) -> None:
    """Score ``inputs`` in order with a fresh copy of ``det``, and extract each
    one's features with one carry of its kind; each must equal counting every byte."""
    scorer, carry = det.fresh(), _new_carry(det.kind)
    for raw in inputs:
        try:
            img = pe_model.parse(raw)
        except pe_model.PeError:
            assert scorer.score(raw) == math.inf
            if det.kind is DetectorKind.BIGRAM:  # the only extractor that takes unparsed bytes
                got = extract_features_bigram(raw, carry)
                assert got.tobytes() == extract_features_bigram(raw, BigramCounts()).tobytes()
            continue
        full = detector._features(det.kind, raw, img, _new_carry(det.kind))
        assert detector._features(det.kind, raw, img, carry).tobytes() == full.tobytes()
        assert scorer.score(raw) == det.model.margin_one(full)


def _chain(raw: bytes, actions: list[int], pool, seed: int) -> list[bytes]:
    """The bytes after each applied action of a chain that starts at ``raw``."""
    out, img = [], pe_model.parse(raw)
    for step, action in enumerate(actions):
        result = apply_action(img, ActionId(action), pool, seed=seed + step)
        if result.outcome is Outcome.APPLIED:
            img = result.image
            out.append(pe_model.serialize(img))
    return out


@pytest.mark.parametrize("kind", KINDS, ids=["a", "b"])
@settings(max_examples=25, deadline=None)
@given(
    chains=st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.lists(st.integers(0, len(ActionId) - 1), min_size=1, max_size=6),
            st.integers(0, 2**20),
            st.lists(st.sampled_from(UNPARSEABLE), max_size=2),
        ),
        min_size=2,
        max_size=4,
    )
)
def test_property_carried_features_equal_full_counts(kind, chains):
    world, files = session_data.world(), session_data.mal_bytes() + session_data.ben_bytes()
    det = world.detector_a if kind is DetectorKind.STRUCTURAL else world.detector_b
    inputs = []
    for pick, actions, seed, junk in chains:
        raw = files[pick % len(files)]
        inputs += [raw] + _chain(raw, actions, session_data.pool(), seed) + junk
    _replay(det, inputs)


def _with(raw: bytes, at: int, blob: bytes) -> bytes:
    return raw[:at] + blob + raw[at + len(blob) :]


def _flip(raw: bytes, at: int) -> bytes:
    return _with(raw, at, bytes([raw[at] ^ 0xFF]))


def _motif_edges(mal_bytes: list[bytes]) -> list[bytes]:
    """Motif occurrences broken and made by one byte at either end."""
    raw, m = next((raw, m) for raw in mal_bytes for m in MOTIFS if m in raw)
    p = raw.find(m)
    out = [raw, _flip(raw, p), raw, _flip(raw, p + MOTIF_LEN - 1), raw]
    # write all of a motif but its last byte into section data, then complete it
    img = pe_model.parse(raw)
    s = max(img.sections, key=lambda s: len(s.data))
    q = s.pointer_to_raw_data + len(s.data) // 2
    out += [_with(raw, q, m[:-1] + bytes([m[-1] ^ 0xFF])), _with(raw, q, m)]
    # and its first byte last
    out += [_with(raw, q, bytes([m[0] ^ 0xFF]) + m[1:]), _with(raw, q, m), raw]
    return out


def _window_edges(mal_bytes: list[bytes]) -> list[bytes]:
    """A file past 64 KiB, changed on both sides of the bigram window's end."""
    raw = min(mal_bytes, key=len)
    assert pe_model.parse(raw).last_raw_end < BIGRAM_WINDOW - 64
    big = raw + bytes(range(256)) * ((BIGRAM_WINDOW + 4096 - len(raw)) // 256)
    out = [big]
    for at in (BIGRAM_WINDOW - 2, BIGRAM_WINDOW - 1, BIGRAM_WINDOW, BIGRAM_WINDOW + 1):
        out += [_flip(big, at), big]
    out += [
        big[: BIGRAM_WINDOW - 100] + b"\x07" + big[BIGRAM_WINDOW - 100 :],  # shifts the window's end
        big[:BIGRAM_WINDOW],
        big[: BIGRAM_WINDOW + 1],
        big[: BIGRAM_WINDOW - 1],
        _flip(_flip(big, 300), BIGRAM_WINDOW + 7),
    ]
    return out


def _import_moves(mal_bytes: list[bytes]) -> list[bytes]:
    """The import directory moved while the sections stay as they are."""
    raw = next(raw for raw in mal_bytes if len(pe_model.parse_imports(pe_model.parse(raw))) >= 2)
    out = [raw]
    for delta in (pe_model.IMPORT_DESCRIPTOR.size, None):
        img = pe_model.parse(raw).copy()
        d = img.directory(pe_model.DIR_IMPORT)
        d.rva = 0 if delta is None else d.rva + delta
        out.append(pe_model.serialize(img))
    return out + [raw]


@pytest.mark.parametrize("kind", KINDS, ids=["a", "b"])
def test_carried_features_equal_full_counts_at_every_edge(world, mal_bytes, ben_bytes, kind):
    det = world.detector_a if kind is DetectorKind.STRUCTURAL else world.detector_b
    inputs = _motif_edges(mal_bytes) + _window_edges(mal_bytes) + _import_moves(mal_bytes)
    # other files between them, whole and cut short, and unparseable inputs
    rng = random.Random(0)
    for raw in rng.sample(mal_bytes + ben_bytes, 12):
        inputs += [raw, raw[: rng.randrange(len(raw))], rng.choice(UNPARSEABLE)]
    inputs += inputs[::-1]
    _replay(det, inputs)


def test_import_moves_change_the_features(mal_bytes):
    """The import-walk case above is a real case: the walk's result moves."""
    raw, by_four, none, _ = _import_moves(mal_bytes)
    counts = [len(pe_model.parse_imports(pe_model.parse(b))) for b in (raw, by_four, none)]
    assert counts[0] > counts[1] > counts[2] == 0


def _poison(carry) -> None:
    """Shift every count a carry holds, in place."""
    for value in vars(carry).values():
        if isinstance(value, np.ndarray) and value.flags.writeable:
            value += 7
        elif isinstance(value, list) and value and isinstance(value[0], (int, float)):
            value[:] = [v + 7 for v in value]


def test_fresh_and_loaded_detectors_carry_nothing(world, mal_bytes, tmp_path):
    """``fresh`` and ``load`` start from no carried counts: even after the
    detector they come from was left with wrong ones, scoring files in
    shuffled order gives each the margin a new detector gives it.  The files
    differ from each other in a few bytes, so carried counts would be used."""
    base = mal_bytes[3]
    inputs = [base] + [_flip(base, len(base) - k) for k in range(1, 400, 37)]
    for det in (world.detector_a, world.detector_b):
        used = det.fresh()
        for raw in mal_bytes[4:8] + inputs:
            used.score(raw)
        _poison(used._carry)
        # the poisoned counts do bite: carried on, they give other features
        probe = _flip(inputs[-1], len(inputs[-1]) - 3)
        img = pe_model.parse(probe)
        assert (
            detector._features(det.kind, probe, img, copy.deepcopy(used._carry)).tobytes()
            != detector._features(det.kind, probe, img, _new_carry(det.kind)).tobytes()
        )
        used.save(tmp_path / "det.bin")
        expected = {raw: Detector(det.kind, det.model).score(raw) for raw in inputs}
        for start in (used.fresh(), Detector.load(tmp_path / "det.bin")):
            assert start._carry is not used._carry
            order = random.Random(len(inputs)).sample(inputs, len(inputs))
            assert [start.score(raw) for raw in order] == [expected[raw] for raw in order]
