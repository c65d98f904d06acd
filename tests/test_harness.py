"""Experiment harness: rate arithmetic, dataset splitting, policy
evaluation, cross-classifier transfer, and the staged workflow."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from amg import harness
from amg.detector import Verdict
from amg.harness import (
    OBSERVATION_MEMO_ENTRIES,
    EmptyDenominator,
    Episode,
    EvalResult,
    evaluate_policy,
    evasion_rate,
    micro_plan,
    prepare_world,
    quick_plan,
    render_report,
    run_workflow,
    split_indexed,
    train_agent,
    transferability,
    truncated_percent,
)
from amg.agents import dqn, make_agent
from amg.pe_mods import ACTION_COUNT, Outcome
from amg.memo import ContentMemo
from amg.rl import AlreadyBenign, N_OBSERVATION, env as env_module
from replay_reference import replay

GOLDEN_DIR = Path(__file__).parent / "golden"

# ---------------------------------------------------------------------------
# rate arithmetic


@pytest.mark.parametrize(
    "evaded,eligible,expected",
    [
        (7, 13, 53.84),
        (3, 8, 37.5),
        (0, 5, 0.0),
        (0, 1, 0.0),
        (19, 20, 95.0),
        (2, 3, 66.66),  # truncates, never rounds up
        (13, 13, 100.0),
    ],
)
def test_truncated_percent_exact_cases(evaded, eligible, expected):
    assert truncated_percent(evaded, eligible) == expected


def test_evasion_rate_fraction():
    assert evasion_rate(7, 13) == 7 / 13
    assert evasion_rate(0, 4) == 0.0


def test_zero_denominator_is_an_error():
    with pytest.raises(EmptyDenominator):
        evasion_rate(0, 0)
    with pytest.raises(EmptyDenominator):
        truncated_percent(3, 0)


# ---------------------------------------------------------------------------
# splitting and world preparation


def test_split_indexed_canonical_sizes():
    train, val, test = split_indexed(list(range(700)))
    assert (len(train), len(val), len(test)) == (400, 100, 200)
    assert train + val + test == list(range(700))  # order kept, nothing lost


def test_split_indexed_small_population():
    train, val, test = split_indexed(list("abcdefg"))
    assert (len(train), len(val), len(test)) == (4, 1, 2)


def test_world_splits_and_components(world):
    assert (len(world.mal_train), len(world.mal_val), len(world.mal_test)) == (80, 20, 40)
    assert (len(world.ben_train), len(world.ben_val), len(world.ben_test)) == (45, 12, 23)
    verdict = world.detector_a.classify(world.mal_train[0])
    assert verdict in (Verdict.MALICIOUS, Verdict.BENIGN)
    assert world.detector_a.classify(world.mal_train[0]) is not None
    assert len(world.pool.blobs) > 0


# ---------------------------------------------------------------------------
# evaluation and transfer with stub classifiers


def test_evaluate_policy_counts_and_queries(world):
    files = world.mal_test[:5]
    agent = make_agent("random", N_OBSERVATION, ACTION_COUNT, seed=0)
    result = evaluate_policy(
        agent, files, lambda raw: Verdict.MALICIOUS, world.pool, max_steps=3, seed=0
    )
    assert isinstance(result, EvalResult)
    assert (result.evaded, result.eligible, result.excluded) == (0, 5, 0)
    assert result.queries == 5 * (3 + 1)  # reset + one per step
    assert result.rate == 0.0


def test_evaluate_policy_excludes_undetected_originals(world):
    files = world.mal_test[:4]
    agent = make_agent("random", N_OBSERVATION, ACTION_COUNT, seed=0)
    result = evaluate_policy(
        agent, files, lambda raw: Verdict.BENIGN, world.pool, max_steps=3, seed=0
    )
    assert (result.evaded, result.eligible, result.excluded) == (0, 0, 4)
    with pytest.raises(EmptyDenominator):
        result.rate


def test_evaluate_policy_collects_winning_pairs(world):
    files = world.mal_test[:4]
    # malicious verdict exactly on the unmodified originals: any byte change evades
    originals = set(files)
    classify = lambda raw: Verdict.MALICIOUS if raw in originals else Verdict.BENIGN
    agent = make_agent("random", N_OBSERVATION, ACTION_COUNT, seed=0)
    result = evaluate_policy(
        agent, files, classify, world.pool, max_steps=5, seed=0, collect_pairs=True
    )
    assert result.evaded == len(result.pairs) > 0
    for original, rewrite in result.pairs:
        assert original in originals
        assert rewrite != original
        assert classify(rewrite) is Verdict.BENIGN


def test_direct_evaluation_observes_each_content_once_per_memo(world, monkeypatch):
    """An evaluation passes its caller's memo to every env and builds none
    itself: without one, each env observes its start and every applied
    step, so a file met twice is encoded twice; with one, each content is
    encoded once and the memo counts the repeats as hits."""
    original_observe, original_apply = env_module.observe, env_module.apply_action
    original_reset = env_module.RewriteEnv.reset
    seen = []  # observed digests, with None where an env resets
    applied = []

    def counting(img, raw, counts=None):
        seen.append(hashlib.sha256(raw).digest())
        return original_observe(img, raw, counts)

    def applying(*args, **kwargs):
        result = original_apply(*args, **kwargs)
        applied.append(result.outcome is Outcome.APPLIED)
        return result

    def resetting(env):
        seen.append(None)
        return original_reset(env)

    monkeypatch.setattr(env_module, "observe", counting)
    monkeypatch.setattr(env_module, "apply_action", applying)
    monkeypatch.setattr(env_module.RewriteEnv, "reset", resetting)
    files = world.mal_test[:3] * 2
    calls, steps = [], []
    for memo in (None, ContentMemo(OBSERVATION_MEMO_ENTRIES)):
        seen.clear()
        applied.clear()
        agent = make_agent("random", N_OBSERVATION, ACTION_COUNT, seed=0)
        evaluate_policy(agent, files, lambda raw: Verdict.MALICIOUS, world.pool,
                        max_steps=3, seed=0, observations=memo)
        calls.append(list(seen))
        steps.append(sum(applied))
    marked, shared = calls[0], [digest for digest in calls[1] if digest is not None]
    own = [digest for digest in marked if digest is not None]
    starts = [hashlib.sha256(raw).digest() for raw in files]
    # each env encodes its start first
    assert [marked[i + 1] for i, d in enumerate(marked) if d is None] == starts
    assert len(own) == len(files) + steps[0]  # and each applied step
    assert shared == list(dict.fromkeys(own))  # one shared memo encodes each content once
    assert len(shared) < len(own)
    assert memo.misses == len(shared) and memo.hits >= len(files) // 2


@pytest.mark.parametrize("memo", [None, ContentMemo(8)], ids=["none", "given"])
def test_train_and_evaluate_pass_their_memo_to_every_env(world, monkeypatch, memo):
    given = []

    class Recording(harness.RewriteEnv):
        def __init__(self, raw, classify, pool, max_steps, seed, observations=None):
            given.append(observations)
            super().__init__(raw, classify, pool, max_steps, seed, observations)

    monkeypatch.setattr(harness, "RewriteEnv", Recording)
    classify = lambda raw: Verdict.MALICIOUS
    agent = train_agent("random", world.mal_train[:3], classify, world.pool, max_steps=2,
                        episodes=4, seed=0, observations=memo)
    evaluate_policy(agent, world.mal_test[:3], classify, world.pool, max_steps=2,
                    seed=0, observations=memo)
    assert len(given) == 7 and all(observations is memo for observations in given)


def test_evaluation_queries_reconcile_with_the_classifier(world, monkeypatch):
    """Over excluded and eligible files alike, ``queries`` is every query
    that reached ``classify`` but the screening ones, and ``excluded`` the
    files screened out at reset, as the benchmark's accounting check has it."""
    queries, screened = [], []
    detector = world.detector_a.fresh()

    def classify(raw):
        queries.append(raw)
        return detector.classify(raw)

    def resetting(env):
        try:
            return original_reset(env)
        except AlreadyBenign:
            screened.append(env)
            raise

    original_reset = env_module.RewriteEnv.reset
    monkeypatch.setattr(env_module.RewriteEnv, "reset", resetting)
    agent = make_agent("random", N_OBSERVATION, ACTION_COUNT, seed=0)
    result = evaluate_policy(agent, world.mal_test[:6] + world.ben_test[:4], classify,
                             world.pool, max_steps=4, seed=3)
    assert result.excluded == len(screened) > 0
    assert result.eligible > 0
    assert result.queries == len(queries) - len(screened)


def test_transferability_exclusion_and_counting():
    pairs = [(b"o1", b"r1"), (b"o2", b"r2"), (b"o3", b"r3")]
    table = {b"o1": Verdict.MALICIOUS, b"o2": Verdict.MALICIOUS, b"o3": Verdict.BENIGN,
             b"r1": Verdict.BENIGN, b"r2": Verdict.MALICIOUS, b"r3": Verdict.BENIGN}
    result = transferability(pairs, table.__getitem__)
    assert (result.evaded, result.eligible, result.excluded) == (1, 2, 1)
    assert result.percent == 50.0


def test_train_agent_is_seed_deterministic(world):
    def flat(seed):
        agent = train_agent(
            "ppo",
            world.mal_train[:6],
            world.detector_a.classify,
            world.pool,
            max_steps=3,
            episodes=16,
            seed=seed,
        )
        return agent.net.flat

    a, b = flat(7), flat(7)
    assert (a == b).all()
    assert not (flat(8) == a).all()


# ---------------------------------------------------------------------------
# staged workflow


def test_plan_serialization_round_trips():
    plan = quick_plan(seed=3)
    blob = json.dumps(plan.to_dict())
    assert json.loads(blob)["seed"] == 3
    assert set(micro_plan(0).to_dict()) == set(plan.to_dict())


@pytest.fixture(scope="module")
def micro_report(world, tmp_path_factory):
    out = tmp_path_factory.mktemp("workflow")
    report = run_workflow(world, micro_plan(seed=0), out_dir=out)
    return report, out


def test_workflow_queries_fresh_copies_of_the_world_detectors(world, monkeypatch):
    world.detector_a.classify(world.mal_train[0])
    world.detector_b.classify(world.mal_train[0])
    def counts(memo):
        return memo.hits, memo.misses, len(memo)

    before = {name: counts(getattr(world, name)._memo) for name in ("detector_a", "detector_b")}
    used = []  # (detector, memo size) at each call

    def fake_train(kind, files, classify, pool, max_steps, episodes, hyper=None, seed=0,
                   observations=None):
        used.append((classify.__self__, len(classify.__self__._memo)))
        classify(files[0])
        return make_agent("random", N_OBSERVATION, ACTION_COUNT, seed=seed)

    def fake_evaluate(agent, files, classify, pool, max_steps, seed=0, collect_pairs=False,
                      observations=None):
        used.append((classify.__self__, len(classify.__self__._memo)))
        return EvalResult([Episode(files[0], (), False, None)])

    def fake_transferability(pairs, classify_b):
        used.append((classify_b.__self__, len(classify_b.__self__._memo)))
        return harness.Tally([])

    monkeypatch.setattr(harness, "train_agent", fake_train)
    monkeypatch.setattr(harness, "evaluate_policy", fake_evaluate)
    monkeypatch.setattr(harness, "transferability", fake_transferability)
    run_workflow(world, micro_plan(0))

    copy_a, size_a = used[0]
    copy_b, size_b = used[-1]
    assert copy_a.model is world.detector_a.model and copy_a is not world.detector_a
    assert copy_b.model is world.detector_b.model and copy_b is not world.detector_b
    assert size_a == size_b == 0  # each copy starts with an empty memo
    assert {id(det) for det, _ in used[:-1]} == {id(copy_a)}  # one copy for the whole workflow
    assert used[1][1] == 1  # and keeps what the workflow scored
    assert {name: counts(getattr(world, name)._memo) for name in before} == before


def test_each_workflow_shares_one_new_observation_memo(world, monkeypatch):
    memos = []  # (memo, its size) at each call

    def fake_train(kind, files, classify, pool, max_steps, episodes, hyper=None, seed=0,
                   observations=None):
        memos.append((observations, len(observations)))
        observations.get(files[0], lambda: None)
        return make_agent("random", N_OBSERVATION, ACTION_COUNT, seed=seed)

    def fake_evaluate(agent, files, classify, pool, max_steps, seed=0, collect_pairs=False,
                      observations=None):
        memos.append((observations, len(observations)))
        return EvalResult([Episode(files[0], (), False, None)])

    monkeypatch.setattr(harness, "train_agent", fake_train)
    monkeypatch.setattr(harness, "evaluate_policy", fake_evaluate)
    runs = []
    for _ in range(2):
        memos.clear()
        run_workflow(world, micro_plan(0))
        runs.append(memos[0][0])
        assert isinstance(memos[0][0], ContentMemo)
        assert memos[0][0].entries == OBSERVATION_MEMO_ENTRIES
        assert {id(memo) for memo, _ in memos} == {id(memos[0][0])}  # every job, every stage
        assert memos[0][1] == 0  # it starts empty
        assert memos[1][1] == 1  # and keeps what the first job encoded
    assert runs[0] is not runs[1]  # and goes with its workflow


def test_workflow_report_structure(micro_report):
    report, out = micro_report
    plan = micro_plan(seed=0)
    assert set(report["stages"]) == {"sweep", "grid", "extended"}
    assert set(report["best_max_steps"]) == set(plan.agents)
    assert len(report["stages"]["sweep"]) == len(plan.agents) * len(plan.max_steps_grid)
    grid_size = len(plan.agents) * len(plan.alpha_grid) * len(plan.gamma_grid)
    assert len(report["stages"]["grid"]) == grid_size
    assert len(report["stages"]["extended"]) == min(plan.top_k, grid_size)
    for row in report["stages"]["sweep"]:
        assert {"agent", "max_steps", "alpha", "gamma", "evaded", "eligible",
                "percent", "stage"} <= set(row)
    assert report["winner"] == report["stages"]["extended"][0]
    for key in ("winner", "random_baseline", "transfer"):
        assert {"evaded", "eligible", "excluded", "percent"} <= set(report["test"][key])


def test_workflow_stage_ordering_is_best_first(micro_report):
    report, _ = micro_report
    for stage in ("grid", "extended"):
        rows = report["stages"][stage]
        percents = [row["percent"] for row in rows]
        assert percents == sorted(percents, reverse=True)


def test_workflow_writes_artifacts(micro_report):
    report, out = micro_report
    on_disk = json.loads((out / "workflow.json").read_text())
    assert on_disk == json.loads(json.dumps(report))  # identical after JSON round-trip
    text = (out / "workflow.txt").read_text()
    assert text == render_report(report)
    assert "winner" in text
    assert f"{report['test']['winner']['percent']:.2f}" in text


def test_workflow_is_deterministic(world, micro_report):
    report, _ = micro_report
    again = run_workflow(world, micro_plan(seed=0))

    def scrub(r):
        r = json.loads(json.dumps(r))
        r.pop("elapsed_seconds", None)
        return r

    assert scrub(report) == scrub(again)


# ---------------------------------------------------------------------------
# goldens: every agent kind's training and evaluation, and the micro workflow


def _state_sha256(agent) -> str:
    state = hashlib.sha256()
    for name, array in sorted(agent.state_arrays().items()):
        state.update(name.encode())
        state.update(array.tobytes())
    return state.hexdigest()


@pytest.fixture(scope="module")
def rollouts(world) -> dict:
    """Per agent kind: train as in ``test_train_agent_is_seed_deterministic``,
    then evaluate on the validation split with pairs collected."""
    out = {}
    for kind in ("dqn", "pg", "ppo", "random"):
        agent = train_agent(
            kind,
            world.mal_train[:6],
            world.detector_a.classify,
            world.pool,
            max_steps=3,
            episodes=16,
            seed=7,
        )
        out[kind] = agent, evaluate_policy(
            agent, world.mal_val, world.detector_a.classify, world.pool,
            max_steps=3, seed=7, collect_pairs=True,
        )
    return out


def _agent_rollouts(rollouts) -> dict:
    """Each rollout's weights, counts and rewrites, weights and rewrites by
    their SHA-256."""
    return {
        kind: {
            "state_sha256": _state_sha256(agent),
            "counts": [result.evaded, result.eligible, result.excluded, result.queries],
            "rewrites_sha256": hashlib.sha256(
                b"".join(rewrite for _, rewrite in result.pairs)).hexdigest(),
        }
        for kind, (agent, result) in rollouts.items()
    }


def test_every_evaded_record_replays_to_its_rewrite(world, rollouts):
    """Each evaded record's applied steps, re-applied to its original with
    their recorded seeds, give its rewrite bit for bit."""
    evaded = [e for _, result in rollouts.values() for e in result.episodes if e and e.evaded]
    assert len(evaded) == sum(len(result.pairs) for _, result in rollouts.values()) > 0
    for episode in evaded:
        assert replay(episode.original, episode.steps, world.pool) == episode.rewrite


def _scrubbed(report: dict) -> dict:
    report = json.loads(json.dumps(report))
    report.pop("elapsed_seconds", None)
    return report


# Captured before the nets moved to one flat parameter vector.
DQN_UPDATES_SHA256 = "b2b5fce8bd163ad1b1d9932686c2e5b1134eb97445c9c3dc40d901797ed4d88e"


def test_dqn_td_updates_and_target_syncs_match_golden(world, monkeypatch):
    """The ``agents.json`` DQN entry stops below ``LEARN_START``; this run
    learns from replay and syncs its target net twice."""
    for name, value in [("LEARN_START", 8), ("BATCH_SIZE", 8), ("TARGET_SYNC", 16)]:
        monkeypatch.setattr(dqn, name, value)
    agent = train_agent(
        "dqn",
        world.mal_train[:6],
        world.detector_a.classify,
        world.pool,
        max_steps=3,
        episodes=16,
        seed=7,
    )
    assert agent.total_steps > 16
    assert _state_sha256(agent) == DQN_UPDATES_SHA256


def test_agent_rollouts_and_micro_workflow_match_goldens(rollouts, micro_report):
    """Pin what every agent kind learns and does, and the whole micro-plan
    report, against JSON captured from the code before the rollout loop was
    shared. A change that moves them re-captures the files and says why."""
    assert _agent_rollouts(rollouts) == json.loads((GOLDEN_DIR / "agents.json").read_text())
    report, _ = micro_report
    golden = json.loads((GOLDEN_DIR / "workflow_micro.json").read_text())
    assert _scrubbed(report) == golden
