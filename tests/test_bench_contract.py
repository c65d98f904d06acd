"""The names the benchmark (``bench/``) wraps must stay where it looks.

The benchmark's tracer replaces a method through its class's own
``__dict__`` (an inherited method is not found there) and a function through
every module attribute bound to it, so ``run_workflow`` must reach
``train_agent`` and ``evaluate_policy`` through ``harness``'s globals. Its
query accounting wraps ``harness.evaluate_policy`` the same way, and its
validity workload counts one op per ``reports_for`` call with the test role.
No real training runs here.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from amg import corpus, detector, harness, pe_mods, pe_model, signals, validity
from amg.agents import DqnAgent, PpoAgent, RandomAgent, make_agent
from amg.detector import Verdict, boost, features
from amg.pe_mods import ACTION_COUNT, ActionId
from amg.memo import ContentMemo
from amg.rl import N_OBSERVATION, RewriteEnv, observation

WRAPPED_METHODS = [
    (PpoAgent, ("select_action", "record", "end_episode")),
    (DqnAgent, ("select_action", "record", "end_episode")),
    (RandomAgent, ("select_action",)),
    (RewriteEnv, ("reset", "step")),
    (detector.Detector, ("classify",)),
    (boost.BoostedStumps, ("margin_one",)),
    (validity.StructuralBackend, ("reports_for",)),
]

WRAPPED_FUNCTIONS = [
    (harness, ("train_agent", "evaluate_policy", "transferability", "run_workflow")),
    (corpus, ("generate",)),
    (detector, ("train_detector",)),
    (pe_mods, ("build_pool", "apply_action")),
    (pe_model, ("parse", "check_invariants", "parse_imports", "serialize", "read_virtual")),
    (features, ("extract_features_structural", "extract_features_bigram")),
    (signals, ("count_motif_hits",)),
    (observation, ("observe",)),
    (validity, ("evaluate_validity", "run_validity_suite")),
]


@pytest.mark.parametrize("cls,names", WRAPPED_METHODS, ids=[c.__name__ for c, _ in WRAPPED_METHODS])
def test_wrapped_methods_live_in_their_own_class_body(cls, names):
    for name in names:
        assert callable(cls.__dict__.get(name)), f"{cls.__name__}.{name}"


@pytest.mark.parametrize("module,names", WRAPPED_FUNCTIONS, ids=[m.__name__ for m, _ in WRAPPED_FUNCTIONS])
def test_wrapped_functions_are_module_level(module, names):
    for name in names:
        assert callable(vars(module).get(name)), f"{module.__name__}.{name}"


def test_run_workflow_calls_train_and_evaluate_through_harness_globals(world, monkeypatch):
    trained, evaluated = [], []

    def fake_train(kind, files, classify, pool, max_steps, episodes, hyper=None, seed=0,
                   observations=None):
        trained.append(kind)
        return make_agent("random", N_OBSERVATION, ACTION_COUNT, seed=seed)

    def fake_evaluate(agent, files, classify, pool, max_steps, seed=0, collect_pairs=False,
                      observations=None):
        evaluated.append(files)
        return harness.EvalResult([harness.Episode(files[0], (), False, None)])

    monkeypatch.setattr(harness, "train_agent", fake_train)
    monkeypatch.setattr(harness, "evaluate_policy", fake_evaluate)
    plan = harness.micro_plan(0)
    report = harness.run_workflow(world, plan)

    sweep = len(plan.agents) * len(plan.max_steps_grid)
    grid = len(plan.agents) * len(plan.alpha_grid) * len(plan.gamma_grid)
    extended = min(plan.top_k, grid)
    assert len(trained) == sweep + grid + extended
    validations = [files for files in evaluated if files is world.mal_val]
    tests = [files for files in evaluated if files is world.mal_test]
    assert len(validations) == sweep + grid + extended
    assert len(tests) == 2  # the winner and the random baseline
    assert len(evaluated) == len(validations) + len(tests)
    assert report["test"]["transfer"]["percent"] is None  # no pairs, nothing eligible


def test_swapped_pairs_leave_the_tally_and_queries_to_the_records():
    """The benchmark's tamper tests hand a result other pairs through
    ``dataclasses.replace``; its tally and queries still come from its records."""
    episodes = [None, harness.Episode(b"a", ((0, 1, "applied"),), True, b"b"),
                harness.Episode(b"c", (), False, None)]
    result = harness.EvalResult(episodes)
    assert result.pairs == [(b"a", b"b")]
    swapped = dataclasses.replace(result, pairs=[(b"x", b"x")])
    assert swapped.pairs == [(b"x", b"x")]
    assert (swapped.evaded, swapped.eligible, swapped.excluded, swapped.queries) == (1, 2, 1, 3)


def test_validity_suite_asks_the_backend_twice_per_file(corpus_files, pool):
    """Once with the control role on the original, then once with the test
    role; a report memo lives inside the backend, never around this call."""
    entries = [(f.name, f.data) for f in corpus_files if f.label == "malicious"][:6]
    calls = []

    class Recording(validity.StructuralBackend):
        def reports_for(self, file_id, data, role):
            calls.append((file_id, data, role))
            return super().reports_for(file_id, data, role)

    backend = Recording()
    for action in ActionId:
        calls.clear()
        validity.run_validity_suite(entries, action, backend, pool, seed=0)
        assert [(file_id, role) for file_id, _, role in calls] == [
            (file_id, role) for file_id, _ in entries for role in ("control", "test")
        ]
        assert [data for _, data, role in calls if role == "control"] == [raw for _, raw in entries]


def test_observation_memo_misses_reach_the_patched_observe(mal_bytes, pool, monkeypatch):
    """The tracer counts ``rl.observe`` by replacing every ``amg`` module
    attribute bound to ``observation.observe``, so a memo miss must call
    ``observe`` through such a binding at call time (not, say, a default
    argument bound at import), and a hit must not call it at all: the memo
    counts each call as a miss and every other lookup as a hit."""
    original = observation.observe
    calls = []

    def counting(img, raw, counts=None):
        calls.append(raw)
        return original(img, raw, counts)

    for name, module in list(sys.modules.items()):
        if name == "amg" or name.startswith("amg."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)

    memo = ContentMemo(16)
    contents = []
    for _ in range(2):  # the second env replays the first env's episode
        env = RewriteEnv(mal_bytes[0], lambda raw: Verdict.MALICIOUS, pool,
                         max_steps=4, seed=1, observations=memo)
        env.reset()
        contents.append(env.current_bytes)
        while not env.done:
            env.step(ActionId.APPEND_OVERLAY)
            contents.append(env.current_bytes)
    assert calls == list(dict.fromkeys(contents))
    assert len(calls) == 5
    assert (memo.misses, memo.hits) == (len(calls), len(contents) - len(calls))
