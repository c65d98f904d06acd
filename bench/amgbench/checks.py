"""Correctness checks on workload outputs.

Each check returns a list of failure messages; every message counts as one
failed operation in the run's error count.  Checks run with the op clock and
the tracer paused, so the queries they make are neither counted nor timed.
"""

from __future__ import annotations

import hashlib
import json

from amg import pe_model
from amg.detector import Verdict


def check_rewrite(classify, rewrite: bytes) -> list[str]:
    """An evaded rewrite must still evade and must round-trip byte for byte."""
    failures = []
    if classify(rewrite) is Verdict.MALICIOUS:
        failures.append("an evaded rewrite is classified malicious on resubmission")
    try:
        same = pe_model.serialize(pe_model.parse(rewrite)) == rewrite
    except pe_model.PeError as exc:
        failures.append(f"an evaded rewrite no longer parses: {exc}")
    else:
        if not same:
            failures.append("an evaded rewrite changes under parse -> serialize")
    return failures


def check_evaluations(evaluations) -> list[str]:
    """Query accounting and evaded rewrites of every ``evaluate_policy`` call.

    ``EvalResult.queries`` covers the episodes of eligible files; the one
    screening query of each file found undetected at reset (exclusion before
    rating) is not in it.  So the queries counted at ``classify`` minus the
    screening queries counted at ``reset`` must equal it, and the screened
    files must equal ``EvalResult.excluded``.
    """
    failures = []
    for e in evaluations:
        if e.counted_queries - e.screened != e.result.queries:
            failures.append(
                f"{e.counted_queries} queries reached classify, {e.screened} of them "
                f"screening, but EvalResult reports {e.result.queries}"
            )
        if e.screened != e.result.excluded:
            failures.append(f"{e.screened} files screened out, EvalResult excluded {e.result.excluded}")
        for _, rewrite in e.result.pairs:
            failures.extend(check_rewrite(e.classify, rewrite))
    return failures


def check_validity_rows(rows, n_files: int, marks: list[int]) -> list[str]:
    """Every row covers every file once, and its outcome counts add up."""
    failures = []
    for row, mark in zip(rows, marks, strict=True):
        if row.total != n_files:
            failures.append(f"{row.action}: total {row.total} != {n_files} files")
        if sum(row.outcomes.values()) != row.total:
            failures.append(f"{row.action}: outcome counts {row.outcomes} do not sum to {row.total}")
        if row.valid + len(row.failures) != row.total:
            failures.append(f"{row.action}: valid + failures != total")
        if mark != row.total:
            failures.append(f"{row.action}: backend saw {mark} test reports for {row.total} files")
    return failures


def digest(parts) -> str:
    """SHA-256 over a unit's outputs; byte strings enter by their own digest."""

    def encode(value):
        if isinstance(value, bytes):
            return hashlib.sha256(value).hexdigest()
        if isinstance(value, (list, tuple)):
            return [encode(v) for v in value]
        if isinstance(value, dict):
            return {str(k): encode(v) for k, v in value.items()}
        return value

    blob = json.dumps(encode(parts), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
