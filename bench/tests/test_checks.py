"""The correctness checks must fail on tampered workload outputs."""

from __future__ import annotations

import dataclasses
import json

import pytest

from amg.detector import Verdict
from amgbench import checks, runner
from amgbench.workloads import TINY, OpClock, RewriteValidate, TrainDqnB, build
from amgbench.tracing import Patches


@pytest.fixture(scope="module")
def setup():
    return build(0, TINY)


@pytest.fixture(scope="module")
def dqn_output(setup):
    workload = TrainDqnB(OpClock())
    patches = Patches()
    workload.install(patches)
    try:
        return workload.run_unit(setup, TINY, 0)
    finally:
        patches.restore()


@pytest.fixture(scope="module")
def validity_output(setup):
    return RewriteValidate(OpClock()).run_unit(setup, TINY, 0)


def _detected(setup) -> bytes:
    classify = setup.world.detector_b.classify
    return next(raw for raw in setup.world.mal_test if classify(raw) is Verdict.MALICIOUS)


def _with_pairs(evaluation, pairs):
    result = dataclasses.replace(evaluation.result, pairs=pairs)
    return dataclasses.replace(evaluation, result=result)


def test_untampered_outputs_pass(setup, dqn_output, validity_output):
    assert checks.check_evaluations(dqn_output.evaluations) == []
    assert checks.check_validity_rows(
        validity_output.rows, len(setup.held_out), validity_output.marks) == []


def test_dropped_query_is_caught(dqn_output):
    evaluation = dqn_output.evaluations[-1]
    tampered = dataclasses.replace(evaluation, counted_queries=evaluation.counted_queries - 1)
    assert checks.check_evaluations([tampered])


def test_miscounted_exclusion_is_caught(dqn_output):
    evaluation = dqn_output.evaluations[-1]
    tampered = dataclasses.replace(evaluation, screened=evaluation.screened + 1)
    assert len(checks.check_evaluations([tampered])) == 2


def test_unmodified_original_as_rewrite_is_caught(setup, dqn_output):
    original = _detected(setup)
    tampered = _with_pairs(dqn_output.evaluations[-1], [(original, original)])
    failures = checks.check_evaluations([tampered])
    assert any("classified malicious" in f for f in failures)


def test_rewrite_that_no_longer_parses_is_caught(setup, dqn_output):
    original = _detected(setup)
    broken = b"X" + original[1:]  # flip the first byte of the MZ magic
    tampered = _with_pairs(dqn_output.evaluations[-1], [(original, broken)])
    failures = checks.check_evaluations([tampered])
    assert any("no longer parses" in f for f in failures)


def test_flipped_byte_changes_the_digest(setup, dqn_output):
    summary, rewrites = dqn_output.digest_parts
    rewrites = rewrites or [_detected(setup)]
    flipped = [bytes([rewrites[0][0] ^ 1]) + rewrites[0][1:], *rewrites[1:]]
    assert checks.digest([summary, flipped]) != checks.digest([summary, rewrites])


def test_validity_row_tampering_is_caught(setup, validity_output):
    n_files = len(setup.held_out)
    row = validity_output.rows[0]
    outcomes = dict(row.outcomes)
    outcomes["applied"] = outcomes.get("applied", 0) + 1
    bad_sum = dataclasses.replace(row, outcomes=outcomes)
    assert checks.check_validity_rows([bad_sum], n_files, [row.total])
    assert checks.check_validity_rows([row], n_files, [row.total - 1])
    short = dataclasses.replace(row, total=row.total - 1)
    assert checks.check_validity_rows([short], n_files, [row.total - 1])


def test_wrong_stored_digest_fails_the_run(tmp_path, monkeypatch):
    stored = json.loads(runner.REFERENCE_PATH.read_text())
    stored["digests"][TINY.label]["rewrite_validate"] = "0" * 64
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(stored))
    monkeypatch.setattr(runner, "REFERENCE_PATH", path)
    result = runner.run_workload("rewrite_validate", seed=stored["seed"], seconds=0, trace=False, size=TINY)
    assert result.reference == "mismatch"
    assert any("stored reference" in f for f in result.failures)
