"""Functionality validation for rewritten executables.

A file's behavior is summarized as three string sets (signatures, API calls,
processes).  The original file is profiled three times (control reports),
the rewritten file three times (test reports), and each test report's
features are compared against the controls with a set-agreement score.  If
any test run failed outright the file is declared broken; otherwise it
passes when at least two feature observations agree at the 0.95 level.

Reports come from a structural backend that derives deterministic
pseudo-reports from the bytes themselves (parse health, import names, entry
section identity, planted byte motifs).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from . import pe_model, signals
from .memo import ContentMemo
from .pe_mods import ActionId, BenignContentPool, ModResult, Outcome, apply_action, ACTION_NAMES
from .seeds import fanout

AGREEMENT_THRESHOLD = 0.95
FEATURES = ("signatures", "api_calls", "processes")
REPORT_ROUNDS = 3
MATCH_MINIMUM = 2
#: Control reports kept by one backend; about 3 KB each, so a full memo holds
#: about 3 MB.
REPORT_MEMO_ENTRIES = 1024


class ArityError(ValueError):
    """Raised when a report triple is missing or oversized."""


@dataclass
class BehaviorReport:
    signatures: set[str] = field(default_factory=set)
    api_calls: set[str] = field(default_factory=set)
    processes: set[str] = field(default_factory=set)
    failed: bool = False

    def feature(self, name: str) -> set[str]:
        return getattr(self, name)


@dataclass
class ValidityVerdict:
    decision: str  # "success" or "failure"
    matched_features: int

    @property
    def ok(self) -> bool:
        return self.decision == "success"


def agreement(a: set[str], b: set[str]) -> float:
    """Set agreement in [0, 1]: intersection over the larger set; 1.0 for two empties."""
    if not a and not b:
        return 1.0
    return len(a & b) / max(len(a), len(b))


def evaluate_validity(
    controls: list[BehaviorReport], tests: list[BehaviorReport]
) -> ValidityVerdict:
    """Compare three test reports against three controls.

    Any failed test report is an immediate failure.  Otherwise every
    (test report, feature) pair that agrees at least 0.95 with some control's
    same feature counts once, and two counted pairs make a success.
    """
    if len(controls) != REPORT_ROUNDS or len(tests) != REPORT_ROUNDS:
        raise ArityError(
            f"need {REPORT_ROUNDS} control and {REPORT_ROUNDS} test reports, "
            f"got {len(controls)} and {len(tests)}"
        )
    matched = 0
    for test in tests:
        if test.failed:
            return ValidityVerdict("failure", matched)
        for feature in FEATURES:
            matched += any(
                agreement(test.feature(feature), control.feature(feature)) >= AGREEMENT_THRESHOLD
                for control in controls
            )
    return ValidityVerdict("success" if matched >= MATCH_MINIMUM else "failure", matched)


# ---------------------------------------------------------------------------
# report backends


class StructuralBackend:
    """Deterministic pseudo-reports computed from the bytes themselves.

    A report is a pure function of the bytes, and the suite profiles the same
    original for every action, so control reports are kept by the SHA-256 of
    their content (least recently used out first) and looked up for every
    role: a test of an unchanged original is a hit too.  Rewrites are new on
    every call and are never stored.  Callers get fresh copies each time.
    """

    def __init__(self) -> None:
        self._memo = ContentMemo(REPORT_MEMO_ENTRIES)

    def reports_for(self, file_id: str, data: bytes, role: str) -> list[BehaviorReport]:
        report = self._memo.get(data, lambda: self._report(data), keep=role == "control")
        return [
            BehaviorReport(
                set(report.signatures), set(report.api_calls), set(report.processes), report.failed
            )
            for _ in range(REPORT_ROUNDS)
        ]

    def _report(self, data: bytes) -> BehaviorReport:
        try:
            img = pe_model.parse(data)
        except pe_model.PeError:
            return BehaviorReport(failed=True)
        diags = pe_model.check_invariants(img)
        if any(d.severity == "error" for d in diags):
            return BehaviorReport(failed=True)

        sigs = {f"diag:{d.severity}:{d.path}" for d in diags}
        for i, count in enumerate(signals.count_motif_hits(data)):
            if count:
                sigs.add(f"motif:{i:02d}")

        calls = set()
        for desc in pe_model.parse_imports(img):
            for fn in desc.function_names:
                calls.add(f"{desc.dll_name.lower()}!{fn}")

        entry = img.entry_section_index()
        if entry is None:
            procs = {"proc:none"}
        else:
            digest = hashlib.sha256(img.sections[entry].data).hexdigest()[:16]
            procs = {f"proc:{digest}"}
        return BehaviorReport(signatures=sigs, api_calls=calls, processes=procs)


# ---------------------------------------------------------------------------
# suite runner


@dataclass
class ValidityRow:
    action: str
    valid: int
    total: int
    outcomes: dict[str, int]
    failures: list[str]

    def to_dict(self) -> dict:
        return {
            "action": self.action,
            "valid": self.valid,
            "total": self.total,
            "outcomes": dict(self.outcomes),
            "failures": list(self.failures),
        }


def run_validity_suite(
    entries: list[tuple[str, bytes]],
    action: ActionId,
    backend,
    pool: BenignContentPool,
    seed: int,
) -> ValidityRow:
    """Apply one action to every file and tally how many stay valid."""
    valid = 0
    outcomes: dict[str, int] = {}
    failures: list[str] = []
    for file_id, raw in entries:
        img = pe_model.parse(raw)
        action_seed = fanout(seed, "validity", file_id, int(action))
        result: ModResult = apply_action(img, action, pool, seed=action_seed)
        outcomes[result.outcome.value] = outcomes.get(result.outcome.value, 0) + 1
        if result.outcome is Outcome.APPLIED:
            modified = pe_model.serialize(result.image)
        else:
            modified = raw
        controls = backend.reports_for(file_id, raw, "control")
        tests = backend.reports_for(file_id, modified, "test")
        verdict = evaluate_validity(controls, tests)
        if verdict.ok:
            valid += 1
        else:
            failures.append(file_id)
    return ValidityRow(
        action=ACTION_NAMES[action],
        valid=valid,
        total=len(entries),
        outcomes=outcomes,
        failures=failures,
    )
