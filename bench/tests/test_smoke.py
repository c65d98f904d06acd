"""Every workload at tiny size, untraced and traced."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from amgbench import tracing
from amgbench.runner import REFERENCE_PATH, run_workload
from amgbench.workloads import TINY, WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = json.loads(REFERENCE_PATH.read_text())["seed"]
_results: dict[tuple[str, bool], object] = {}


def run(name: str, trace: bool):
    if (name, trace) not in _results:
        _results[name, trace] = run_workload(name, seed=SEED, seconds=0, trace=trace, size=TINY)
    return _results[name, trace]


each_workload = pytest.mark.parametrize("name", sorted(WORKLOADS))


def test_workloads_are_listed_in_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@each_workload
def test_runs_pass_their_checks(name):
    for result in (run(name, False), run(name, True)):
        assert result.failures == []
        assert result.attempted >= 1
        assert result.reference == "match"


@each_workload
def test_emitted_metrics_match_the_spec(name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run(name, trace)
        spec = {m["name"]: m["unit"] for m in SPEC[key]}
        assert set(result.metrics) == set(spec)
        for metric, (value, unit) in result.metrics.items():
            assert NAME.fullmatch(metric) and len(metric) <= 64
            assert unit == spec[metric]
            assert isinstance(value, float)


@each_workload
def test_traced_digest_equals_untraced_digest(name):
    assert run(name, False).digest == run(name, True).digest


@each_workload
def test_self_times_fit_inside_each_trace_root(name):
    tracer = run(name, True).tracer
    own = tracer.self_times()
    assert min(own) >= 0
    per_trace: dict[int, int] = {}
    for sid, t in enumerate(own):
        per_trace[tracer.trace[sid]] = per_trace.get(tracer.trace[sid], 0) + t
    roots = [sid for sid, parent in enumerate(tracer.parent)
             if parent < 0 or tracer.trace[parent] != tracer.trace[sid]]
    assert len(roots) == len(per_trace)
    for root in roots:
        assert per_trace[tracer.trace[root]] <= tracer.end[root] - tracer.start[root]


def _timed_names(result) -> set[str]:
    tracer = result.tracer
    return {n for n, p in zip(tracer.names, tracer.phase_of) if p == tracing.TIMED}


def test_rewrite_validate_touches_no_rl_detector_or_agent_code():
    names = _timed_names(run("rewrite_validate", True))
    assert "validity.reports_for" in names
    assert not [n for n in names if n.startswith(("rl.", "detector.", "agents."))]


def test_structural_features_weigh_more_on_workflow_ppo_a():
    def share(result):
        m = result.metrics
        return m["detector.a.features.share"][0] + m["signals.count_motif_hits.share"][0]

    assert share(run("workflow_ppo_a", True)) > share(run("train_dqn_b", True))


def test_dqn_learning_outweighs_every_agent_function_of_workflow_ppo_a():
    ppo = run("workflow_ppo_a", True).metrics
    dqn = run("train_dqn_b", True).metrics
    ppo_agent_max = max(v for k, (v, _) in ppo.items() if k.startswith("agents.") and k.endswith(".share"))
    assert dqn["agents.dqn.record.share"][0] > ppo_agent_max
