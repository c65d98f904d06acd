"""Acceptance gate: ten go/no-go checks, one test per criterion.

Each test prints as a single pass/fail line under `pytest -v`.  The
heavyweight computations (the rewrite matrix and the trained-versus-random
headline) are factored into pure functions returning plain dictionaries so
the determinism criterion can re-run them from scratch — fresh corpus,
fresh detectors, fresh agents — and compare every number bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import pytest

import toy_chain
from grad_check import TRIALS
from test_validity import CASES

from amg import pe_model
from amg.agents import AgentHyper, discounted_return, make_agent, q_update
from amg.corpus import CorpusSpec, generate
from amg.detector import Verdict
from amg.harness import (
    evaluate_policy,
    prepare_world,
    train_agent,
    transferability,
    truncated_percent,
)
from amg.pe_mods import ACTION_COUNT, ActionId, Outcome, apply_action, build_pool
from amg.rl import N_OBSERVATION
from amg.validity import evaluate_validity

ROUND_SPEC = CorpusSpec(malicious=300, benign=200, seed=7)  # 500 files
HEAD_SPEC = CorpusSpec(malicious=350, benign=200, seed=7)
WORLD_SEED = 1
TRAIN_SEEDS = (0, 1, 2)
MAX_STEPS = 10
EPISODES = 1000
SLACK_ACTIONS = (ActionId.ADD_NEW_SECTION, ActionId.APPEND_NEW_IMPORT)
GOLDEN_DIR = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# reusable computations (criterion 10 re-runs these from scratch)


def _rewrite_matrix(files) -> dict:
    """Outcome counts for every action over the first 200 files, plus a
    digest of all applied results and an invariant-violation tally."""
    pool = build_pool([f.data for f in files if f.label == "benign"])
    subset = files[:200]
    rows: dict[str, dict] = {}
    hasher = hashlib.sha256()
    for action in ActionId:
        applied = noop = violations = 0
        failed_files: list[str] = []
        for i, f in enumerate(subset):
            result = apply_action(pe_model.parse(f.data), action, pool, seed=i)
            if result.outcome is Outcome.APPLIED:
                applied += 1
                if pe_model.check_invariants(result.image):
                    violations += 1
                hasher.update(pe_model.serialize(result.image))
            elif result.outcome is Outcome.NOOP:
                noop += 1
            else:
                failed_files.append(f.name)
        rows[action.name.lower()] = {
            "applied": applied,
            "noop": noop,
            "failed": len(failed_files),
            "failed_files": failed_files,
            "invariant_violations": violations,
        }
    return {"rows": rows, "applied_digest": hasher.hexdigest()}


def _build_world():
    files = generate(HEAD_SPEC)
    mal = [f.data for f in files if f.label == "malicious"]
    ben = [f.data for f in files if f.label == "benign"]
    return prepare_world(mal, ben, seed=WORLD_SEED)


def _headline_numbers(world, seed: int) -> dict:
    """Train PPO against detector A, evaluate on the held-out malicious
    test split alongside a random baseline at the identical step budget,
    then replay the winning rewrites against detector B."""
    agent = train_agent(
        "ppo",
        world.mal_train,
        world.detector_a.classify,
        world.pool,
        max_steps=MAX_STEPS,
        episodes=EPISODES,
        hyper=AgentHyper(alpha=1e-3, gamma=0.9),
        seed=seed,
    )
    ppo = evaluate_policy(
        agent, world.mal_test, world.detector_a.classify, world.pool,
        max_steps=MAX_STEPS, seed=1000 + seed, collect_pairs=True,
    )
    baseline = make_agent("random", N_OBSERVATION, ACTION_COUNT, seed=seed)
    rnd = evaluate_policy(
        baseline, world.mal_test, world.detector_a.classify, world.pool,
        max_steps=MAX_STEPS, seed=1000 + seed,
    )
    transfer = transferability(ppo.pairs, world.detector_b.classify)
    digest = hashlib.sha256(b"".join(rewrite for _, rewrite in ppo.pairs)).hexdigest()
    return {
        "max_steps": MAX_STEPS,
        "ppo": {"evaded": ppo.evaded, "eligible": ppo.eligible,
                "excluded": ppo.excluded, "percent": ppo.percent},
        "random": {"evaded": rnd.evaded, "eligible": rnd.eligible,
                   "excluded": rnd.excluded, "percent": rnd.percent},
        "transfer": {"evaded": transfer.evaded, "eligible": transfer.eligible,
                     "excluded": transfer.excluded,
                     "percent": transfer.percent if transfer.eligible else None},
        "rewrites_sha256": digest,
    }


# ---------------------------------------------------------------------------
# fixtures (module scope: computed once, reused by the determinism check)


@pytest.fixture(scope="module")
def round_files():
    return generate(ROUND_SPEC)


@pytest.fixture(scope="module")
def rewrite_first(round_files):
    t0 = time.time()
    numbers = _rewrite_matrix(round_files)
    return numbers, time.time() - t0


@pytest.fixture(scope="module")
def accept_world():
    return _build_world()


@pytest.fixture(scope="module")
def headline_first(accept_world):
    t0 = time.time()
    numbers = {seed: _headline_numbers(accept_world, seed) for seed in TRAIN_SEEDS}
    return numbers, time.time() - t0


# ---------------------------------------------------------------------------
# the ten criteria


def test_criterion_01_round_trip_exactness(round_files):
    assert len(round_files) == 500
    t0 = time.time()
    for f in round_files:
        assert pe_model.serialize(pe_model.parse(f.data)) == f.data, f.name
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"round-trip of 500 files took {elapsed:.1f}s"


def test_criterion_02_modification_structural_validity(round_files, rewrite_first):
    numbers, elapsed = rewrite_first
    assert elapsed < 120.0, f"rewrite matrix took {elapsed:.1f}s"
    subset = round_files[:200]
    tight = [f.name for f in subset if f.planted["slack"] < 40]
    assert tight, "fixture must include files without header slack"
    assert len(tight) < len(subset), "fixture must include files with header slack"
    for action in ActionId:
        row = numbers["rows"][action.name.lower()]
        assert row["applied"] + row["noop"] + row["failed"] == 200
        assert row["invariant_violations"] == 0, action.name
        if action in SLACK_ACTIONS:
            assert row["failed_files"] == tight, action.name
        elif action is ActionId.APPEND_TO_SECTION:
            boxed = [
                f.name for f in subset
                if not any(s.has_raw() and s.virtual_size > s.size_of_raw_data
                           for s in pe_model.parse(f.data).sections)
            ]
            assert row["failed_files"] == boxed, action.name
        else:
            assert row["failed"] == 0, action.name


def test_criterion_03_report_matcher_fixture_suite():
    assert len(CASES) == 30
    names = [name for name, *_ in CASES]
    assert "boundary_19_of_20_signatures" in names
    assert any("failed" in n and "test" in n for n in names)
    for name, controls, tests, decision, matched in CASES:
        verdict = evaluate_validity(controls, tests)
        assert verdict.decision == decision, name
        assert verdict.matched_features == matched, name


def test_criterion_04_evasion_rate_formula(accept_world):
    assert truncated_percent(7, 13) == 53.84
    assert truncated_percent(3, 8) == 37.5
    for eligible in (1, 2, 5, 97):
        assert truncated_percent(0, eligible) == 0.0
    # denominator exclusion: an originally-undetected file never counts
    files = accept_world.mal_test[:3]
    classify = lambda raw: Verdict.BENIGN if raw == files[0] else Verdict.MALICIOUS
    agent = make_agent("random", N_OBSERVATION, ACTION_COUNT, seed=0)
    result = evaluate_policy(agent, files, classify, accept_world.pool,
                             max_steps=2, seed=0)
    assert result.excluded == 1
    assert result.eligible == 2


def test_criterion_05_learning_sanity_toy_chain():
    optimum = toy_chain.optimal_policy(gamma=0.9)
    for kind in ("dqn", "pg", "ppo"):
        for seed in TRAIN_SEEDS:
            agent = toy_chain.train_chain_agent(kind, seed=seed, episodes=2000)
            policy = toy_chain.greedy_chain_policy(agent)
            assert policy == optimum, f"{kind} seed={seed} learned {policy}"


def test_criterion_06_gradient_exactness():
    for name, trial in sorted(TRIALS.items()):
        errors = [trial(seed) for seed in range(100)]
        below = sum(e < 1e-4 for e in errors)
        assert below == 100, f"{name}: {below}/100, worst {max(errors):.3e}"


def test_criterion_07_trained_beats_random(headline_first):
    numbers, elapsed = headline_first
    assert elapsed < 3600.0, f"headline runs took {elapsed:.0f}s"
    wins = 0
    for seed in TRAIN_SEEDS:
        run = numbers[seed]
        assert run["ppo"]["eligible"] > 0 and run["random"]["eligible"] > 0
        assert run["max_steps"] == MAX_STEPS  # identical budget for both agents
        if run["ppo"]["percent"] - run["random"]["percent"] >= 10.0:
            wins += 1
    assert wins >= 2, {s: numbers[s]["ppo"]["percent"] for s in TRAIN_SEEDS}


def test_criterion_08_transfer_direction(headline_first):
    numbers, _ = headline_first
    ordered = 0
    for seed in TRAIN_SEEDS:
        run = numbers[seed]
        transfer, source = run["transfer"], run["ppo"]
        if transfer["percent"] is None:
            continue
        if 0.0 < transfer["percent"] < source["percent"]:
            ordered += 1
    assert ordered >= 2, {s: numbers[s]["transfer"] for s in TRAIN_SEEDS}


def test_criterion_09_update_arithmetic_exact():
    assert q_update(2.0, 1.0, 2.0, alpha=0.1, gamma=1.0) == 2.1
    assert discounted_return([1.0, 1.0, 1.0], gamma=0.5) == 1.75


def test_criterion_10_bit_identical_reruns(rewrite_first, headline_first):
    rewrite_numbers, _ = rewrite_first
    headline_numbers, _ = headline_first
    assert _rewrite_matrix(generate(ROUND_SPEC)) == rewrite_numbers
    fresh_world = _build_world()
    for seed in TRAIN_SEEDS:
        assert _headline_numbers(fresh_world, seed) == headline_numbers[seed], seed


def test_rewrite_matrix_and_headline_match_goldens(rewrite_first, headline_first):
    """Pin the numbers themselves, not only their rerun: the rewrite matrix and
    the headline numbers for every training seed (``rewrites_sha256`` included)
    must equal the JSON that ``_rewrite_matrix`` and ``_headline_numbers``
    wrote to ``tests/golden/``. A change that moves them re-captures the files
    and says why."""
    rewrite_numbers, _ = rewrite_first
    headline_numbers, _ = headline_first
    assert rewrite_numbers == json.loads((GOLDEN_DIR / "rewrite_matrix.json").read_text())
    golden = json.loads((GOLDEN_DIR / "headline.json").read_text())
    assert {str(seed): run for seed, run in headline_numbers.items()} == golden
