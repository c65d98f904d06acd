"""Report-matching protocol: authored verdict table, backends, corpus suite.

The thirty authored cases each supply three control and three test reports
with a hand-computed expected verdict; they pin the agreement formula, the
0.95 boundary (inclusive), the any-control rule, the two-of-nine success
rule, and the failed-test-report override.  The structural backend's report
memo is checked against a backend without one, and the suite's rows for all
ten actions against a golden.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from amg import pe_model, validity
from amg.pe_mods import ActionId, ModResult, Outcome, apply_action
from amg.validity import (
    AGREEMENT_THRESHOLD,
    ArityError,
    BehaviorReport,
    StructuralBackend,
    agreement,
    evaluate_validity,
    run_validity_suite,
)


def S(prefix: str, n: int, drop: int = 0, add: int = 0) -> set[str]:
    """{prefix}1..{prefix}n, minus the last ``drop``, plus ``add`` extras."""
    base = {f"{prefix}{i}" for i in range(1, n + 1 - drop)}
    base |= {f"{prefix}x{i}" for i in range(add)}
    return base


def rep(sig=None, api=None, proc=None, failed=False) -> BehaviorReport:
    return BehaviorReport(
        signatures=set(sig or ()),
        api_calls=set(api or ()),
        processes=set(proc or ()),
        failed=failed,
    )


def triple(sig=None, api=None, proc=None) -> list[BehaviorReport]:
    return [rep(sig, api, proc) for _ in range(3)]


FULL = dict(sig=S("s", 20), api=S("a", 20), proc=S("p", 3))
DISJOINT = dict(sig={"zs"}, api={"za"}, proc={"zp"})

# (name, controls, tests, expected decision, expected matched count)
CASES = [
    ("identical_reports", triple(**FULL), triple(**FULL), "success", 9),
    ("all_empty_reports", triple(), triple(), "success", 9),
    ("boundary_19_of_20_signatures",
     triple(**FULL),
     triple(sig=S("s", 20, drop=1, add=1), api=S("a", 20), proc=S("p", 3)),
     "success", 9),
    ("signatures_below_threshold_other_features_carry",
     triple(**FULL),
     triple(sig=S("s", 20, drop=2, add=2), api=S("a", 20), proc=S("p", 3)),
     "success", 6),
    ("failed_first_test_report",
     triple(**FULL),
     [rep(failed=True), rep(**FULL), rep(**FULL)],
     "failure", 0),
    ("failed_last_test_report_overrides_matches",
     triple(**FULL),
     [rep(**FULL), rep(**FULL), rep(failed=True)],
     "failure", 6),
    ("single_matched_pair_is_not_enough",
     triple(**FULL),
     [rep(sig=S("s", 20), **{k: v for k, v in DISJOINT.items() if k != "sig"}),
      rep(**DISJOINT), rep(**DISJOINT)],
     "failure", 1),
    ("two_matched_pairs_suffice",
     triple(**FULL),
     [rep(sig=S("s", 20), api={"za"}, proc={"zp"}),
      rep(sig=S("s", 20), api={"za"}, proc={"zp"}),
      rep(**DISJOINT)],
     "success", 2),
    ("fully_disjoint_reports", triple(**FULL), triple(**DISJOINT), "failure", 0),
    ("boundary_95_of_100_api_calls",
     triple(sig={"zs"}, api=S("a", 100), proc={"zp"}),
     triple(sig={"ys"}, api=S("a", 100, drop=5, add=5), proc={"yp"}),
     "success", 3),
    ("just_below_94_of_100_api_calls",
     triple(sig={"zs"}, api=S("a", 100), proc={"zp"}),
     triple(sig={"ys"}, api=S("a", 100, drop=6, add=6), proc={"yp"}),
     "failure", 0),
    ("one_added_item_to_nineteen",
     triple(sig=S("s", 19), api=S("a", 19), proc=S("p", 19)),
     triple(sig=S("s", 19, add=1), api=S("a", 19, add=1), proc=S("p", 19, add=1)),
     "success", 9),
    ("two_added_items_to_nineteen",
     triple(sig=S("s", 19), api=S("a", 19), proc=S("p", 19)),
     triple(sig=S("s", 19, add=2), api=S("a", 19, add=2), proc=S("p", 19, add=2)),
     "failure", 0),
    ("only_third_control_matches",
     [rep(sig={"c1"}, api={"c1a"}, proc={"c1p"}),
      rep(sig={"c2"}, api={"c2a"}, proc={"c2p"}),
      rep(**FULL)],
     triple(**FULL),
     "success", 9),
    ("flaky_controls_each_test_matches_one",
     [rep(**FULL), rep(sig={"noise"}, api={"noise"}, proc={"noise"}), rep(**FULL)],
     triple(**FULL),
     "success", 9),
    ("one_dropped_item_of_twenty",
     triple(**FULL),
     triple(sig=S("s", 20, drop=1), api=S("a", 20, drop=1), proc=S("p", 3)),
     "success", 9),
    ("two_dropped_items_of_twenty",
     triple(sig=S("s", 20), api=S("a", 20), proc={"zp"}),
     triple(sig=S("s", 20, drop=2), api=S("a", 20, drop=2), proc={"yp"}),
     "failure", 0),
    ("empty_test_against_nonempty_control",
     triple(**FULL), triple(sig=set(), api=set(), proc=set()), "failure", 0),
    ("nonempty_test_against_empty_control",
     triple(), triple(**FULL), "failure", 0),
    ("process_change_alone_is_tolerated",
     triple(**FULL),
     triple(sig=S("s", 20), api=S("a", 20), proc={"other"}),
     "success", 6),
    ("api_change_alone_is_tolerated",
     triple(**FULL),
     triple(sig=S("s", 20), api={"other"}, proc=S("p", 3)),
     "success", 6),
    ("two_features_exactly_at_boundary",
     triple(**FULL),
     triple(sig=S("s", 20, drop=1, add=1), api=S("a", 20, drop=1, add=1), proc={"zp"}),
     "success", 6),
    ("boundary_in_one_report_only",
     triple(**FULL),
     [rep(sig=S("s", 20, drop=1, add=1), api={"za"}, proc={"zp"}),
      rep(sig=S("s", 20, drop=2, add=2), api={"za"}, proc={"zp"}),
      rep(sig=S("s", 20, drop=2, add=2), api={"za"}, proc={"zp"})],
     "failure", 1),
    ("one_control_run_came_back_empty",
     [rep(**FULL), rep(), rep(**FULL)],
     triple(**FULL),
     "success", 9),
    ("failed_control_reports_do_not_fail_the_file",
     [rep(failed=True), rep(**FULL), rep(**FULL)],
     triple(**FULL),
     "success", 9),
    ("small_sets_exact_match",
     triple(sig={"a", "b", "c"}, api={"q"}, proc={"zp"}),
     triple(sig={"a", "b", "c"}, api={"zq"}, proc={"yp"}),
     "success", 3),
    ("ratio_39_of_41_passes",
     triple(sig={"zs"}, api=S("a", 39), proc={"zp"}),
     triple(sig={"ys"}, api=S("a", 39, drop=0, add=2), proc={"yp"}),
     "success", 3),
    ("mixed_boundary_and_below",
     triple(**FULL),
     triple(sig=S("s", 20, drop=1, add=1), api=S("a", 20, drop=6, add=6), proc={"zp"}),
     "success", 3),
    ("two_pairs_from_different_reports_and_features",
     triple(**FULL),
     [rep(sig=S("s", 20), api={"za"}, proc={"zp"}),
      rep(sig={"zs"}, api={"za"}, proc=S("p", 3)),
      rep(**DISJOINT)],
     "success", 2),
    ("failed_second_report_after_full_first",
     triple(**FULL),
     [rep(**FULL), rep(failed=True), rep(**FULL)],
     "failure", 3),
]


def test_authored_case_count():
    assert len(CASES) == 30


@pytest.mark.parametrize(
    "name,controls,tests,decision,matched", CASES, ids=[c[0] for c in CASES]
)
def test_authored_verdicts(name, controls, tests, decision, matched):
    verdict = evaluate_validity(controls, tests)
    assert verdict.decision == decision
    assert verdict.matched_features == matched
    assert verdict.ok == (decision == "success")


# ---------------------------------------------------------------------------
# agreement arithmetic


def test_agreement_formula():
    assert agreement(set(), set()) == 1.0
    assert agreement({"x"}, set()) == 0.0
    assert agreement({"x"}, {"x"}) == 1.0
    assert agreement(S("s", 20), S("s", 20, drop=1, add=1)) == 0.95
    assert agreement(S("s", 20), S("s", 20, drop=1)) == 0.95
    assert agreement(S("s", 10), S("s", 40)) == 0.25


def test_boundary_is_inclusive():
    assert 19 / 20 >= AGREEMENT_THRESHOLD


def test_arity_is_enforced():
    with pytest.raises(ArityError):
        evaluate_validity([rep(), rep()], [rep(), rep(), rep()])
    with pytest.raises(ArityError):
        evaluate_validity([rep(), rep(), rep()], [rep()] * 4)


# ---------------------------------------------------------------------------
# structural backend on real files


def corrupting_mutate(img, action, pool, seed=0) -> ModResult:
    """A rewrite that serializes but breaks loadability, called as ``apply_action``."""
    out = img.copy()
    out.optional.magic = 0x999
    return ModResult(Outcome.APPLIED, out)


def test_structural_backend_reports_are_stable(mal_bytes):
    backend = StructuralBackend()
    a = backend.reports_for("f", mal_bytes[0], "control")
    b = backend.reports_for("f", mal_bytes[0], "test")
    assert len(a) == 3
    assert a[0].api_calls and a[0].processes
    assert not a[0].failed
    assert a == b


def test_structural_backend_fails_unparseable_bytes():
    report = StructuralBackend()._report(b"garbage")
    assert report.failed


def test_real_action_keeps_files_valid(corpus_files, pool):
    entries = [(f.name, f.data) for f in corpus_files[:30] if f.label == "malicious"]
    row = run_validity_suite(entries, ActionId.APPEND_OVERLAY, StructuralBackend(), pool, seed=0)
    assert row.valid == row.total == len(entries)
    assert row.failures == []
    assert set(row.outcomes) == {"applied"}


def test_corrupting_rewrite_fails_every_file(corpus_files, pool, monkeypatch):
    monkeypatch.setattr(validity, "apply_action", corrupting_mutate)
    entries = [(f.name, f.data) for f in corpus_files[:30] if f.label == "malicious"]
    row = run_validity_suite(entries, ActionId.BREAK_CHECKSUM, StructuralBackend(), pool, seed=0)
    assert row.valid == 0
    assert len(row.failures) == row.total == len(entries)


def test_import_extension_stays_valid_via_other_features(corpus_files, pool):
    """Adding a DLL can push api-call agreement under 0.95; signatures and
    processes still carry the verdict."""
    roomy = [
        (f.name, f.data)
        for f in corpus_files
        if f.label == "malicious" and f.planted["slack"] >= 40
    ][:10]
    row = run_validity_suite(roomy, ActionId.APPEND_NEW_IMPORT, StructuralBackend(), pool, seed=0)
    assert row.valid == row.total == len(roomy)


# ---------------------------------------------------------------------------
# the control-report memo


def test_memoized_reports_equal_fresh_ones(mal_bytes, pool):
    originals = mal_bytes[:4]
    applied, unchanged = [], []
    for raw in originals:
        img = pe_model.parse(raw)
        for action in ActionId:
            result = apply_action(img.copy(), action, pool, seed=3)
            if result.outcome is Outcome.APPLIED:
                applied.append(pe_model.serialize(result.image))
            else:
                unchanged.append(raw)
    assert applied and unchanged
    inputs = (
        [(raw, "control") for raw in originals]
        + [(raw, "test") for raw in applied + unchanged]
        + [(b"garbage", "control"), (b"garbage", "test")]
        + [(raw, "control") for raw in originals]
    )
    memoized = StructuralBackend()
    for raw, role in inputs:
        expected = StructuralBackend().reports_for("f", raw, role)
        assert memoized.reports_for("f", raw, role) == expected
    assert expected[0].failed is False
    assert memoized.reports_for("f", b"garbage", "test")[0].failed is True


def test_memoized_report_cannot_be_changed_through_a_copy(mal_bytes):
    backend = StructuralBackend()
    first = backend.reports_for("f", mal_bytes[0], "control")
    expected = copy.deepcopy(first)
    for report in first:
        report.signatures.add("tampered")
        report.api_calls.clear()
        report.processes.discard(next(iter(report.processes)))
        report.failed = True
    again = backend.reports_for("f", mal_bytes[0], "control")
    assert again == expected
    assert len({id(r.signatures) for r in again}) == len(again)


def test_memo_keeps_the_last_control_digests(mal_bytes, monkeypatch):
    """A backend's report memo is bounded by ``REPORT_MEMO_ENTRIES``; the
    memo's own order and counts are tested in ``test_memo``."""
    monkeypatch.setattr(validity, "REPORT_MEMO_ENTRIES", 4)
    inputs = mal_bytes[:10]
    assert len(set(inputs)) == 10
    backend = StructuralBackend()
    for raw in inputs:
        backend.reports_for("f", raw, "control")
    assert (backend._memo.entries, len(backend._memo)) == (4, 4)
    # a test of a kept original is a hit; an evicted one is profiled again
    for raw in inputs[-4:] + inputs[:1]:
        backend.reports_for("f", raw, "test")
    assert (backend._memo.hits, backend._memo.misses) == (4, 11)


def test_test_role_contents_are_never_stored(mal_bytes):
    backend = StructuralBackend()
    for raw in mal_bytes[:5] + [b"garbage"]:
        backend.reports_for("f", raw, "test")
        backend.reports_for("f", raw, "test")
    assert not backend._memo
    assert (backend._memo.hits, backend._memo.misses) == (0, 12)


class RecordingBackend(StructuralBackend):
    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple[str, bytes, str]] = []

    def reports_for(self, file_id: str, data: bytes, role: str) -> list[BehaviorReport]:
        self.calls.append((file_id, data, role))
        return super().reports_for(file_id, data, role)


def test_each_original_is_profiled_once_across_actions(corpus_files, pool, monkeypatch):
    entries = [(f.name, f.data) for f in corpus_files if f.label == "malicious"][:8]
    originals = {raw for _, raw in entries}
    profiled = []
    report = StructuralBackend._report

    def counting(self, data):
        profiled.append(data)
        return report(self, data)

    monkeypatch.setattr(StructuralBackend, "_report", counting)
    backend = RecordingBackend()
    for action in ActionId:
        run_validity_suite(entries, action, backend, pool, seed=0)
    assert len(backend.calls) == 2 * len(entries) * len(ActionId)
    assert sorted(profiled.count(raw) for raw in originals) == [1] * len(entries)
    # a test whose bytes are the original's (noop, failed, or an applied
    # rewrite that changed nothing) is a hit; every other test is profiled
    rewrites = [data for _, data, role in backend.calls if role == "test" and data not in originals]
    assert rewrites
    assert len(profiled) == len(entries) + len(rewrites)


# ---------------------------------------------------------------------------
# golden: the suite's rows for all ten actions with one shared backend

GOLDEN = Path(__file__).parent / "golden" / "validity_rows.json"


def test_validity_rows_for_all_actions_match_golden(corpus_files, pool):
    """Captured before the backend kept control reports; a change that moves
    these rows re-captures the file and says why."""
    entries = [(f.name, f.data) for f in corpus_files if f.label == "malicious"][:16]
    backend = StructuralBackend()
    rows = [run_validity_suite(entries, action, backend, pool, seed=3) for action in ActionId]
    assert [row.to_dict() for row in rows] == json.loads(GOLDEN.read_text())
