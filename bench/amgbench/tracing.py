"""Patching, span tracing and per-layer aggregation around amg's public API.

The benchmark never edits the program.  For the length of a run it replaces
module attributes and class methods with wrappers and restores them after.
A function that callers import by name (``from .pe_mods import
apply_action``) is bound in several modules, so a function patch replaces
every attribute of every loaded ``amg`` module that refers to it.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable

from amg.pe_mods import ACTION_NAMES

SETUP = 0
TIMED = 1

#: A span whose name is a key here starts a new trace when it opens directly
#: under one of the listed stage spans: each episode, and each file of a
#: validity suite, becomes its own trace under a synthetic root span.
TRACE_BOUNDARIES: dict[str, tuple[str, frozenset[str]]] = {
    "rl.env.reset": (
        "rl.episode",
        frozenset({"harness.train_agent", "harness.evaluate_policy"}),
    ),
    "pe_model.parse": ("validity.file", frozenset({"validity.run_validity_suite"})),
}


def _amg_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "amg" or n.startswith("amg.")]


class Patches:
    """Replaces functions and methods and puts the originals back on restore."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module, name: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(module, name)
        wrapper = make(original)
        for mod in _amg_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def method(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, make(original))
        self._undo.append((cls, name, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder.

    A span is (name, parent, trace, start, end, phase), stored column-wise
    in lists indexed by span id.  Spans of one trace share a trace id;
    ``counts`` holds counters taken at the same boundaries.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parent: list[int] = []
        self.trace: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.phase_of: list[int] = []
        self.counts: Counter = Counter()
        self.enabled = True
        self.phase = SETUP
        self._stack: list[int] = []
        self._synthetic: set[int] = set()
        self._traces = 0

    # -- recording ----------------------------------------------------------

    def set_phase(self, phase: int) -> None:
        """Spans opened from now on belong to ``phase``; counters restart."""
        self.phase = phase
        self.counts.clear()

    def open(self, name: str) -> int:
        boundary = TRACE_BOUNDARIES.get(name)
        if boundary is not None:
            self._enter_boundary(*boundary)
        return self._open(name, new_trace=False)

    def close(self, sid: int) -> None:
        while self._stack[-1] != sid:
            top = self._stack[-1]
            if top not in self._synthetic:
                raise RuntimeError(f"span {self.names[sid]} closed over open {self.names[top]}")
            self._close_top()
        self._close_top()

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def _open(self, name: str, new_trace: bool) -> int:
        parent = self._stack[-1] if self._stack else -1
        if new_trace or parent < 0:
            trace = self._traces
            self._traces += 1
        else:
            trace = self.trace[parent]
        sid = len(self.names)
        self.names.append(name)
        self.parent.append(parent)
        self.trace.append(trace)
        self.phase_of.append(self.phase)
        self.end.append(-1)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close_top(self) -> None:
        now = time.perf_counter_ns()
        self.end[self._stack.pop()] = now

    def _enter_boundary(self, root: str, stages: frozenset[str]) -> None:
        if self._stack and self.names[self._stack[-1]] == root:
            self._close_top()
        if self._stack and self.names[self._stack[-1]] in stages:
            self._synthetic.add(self._open(root, new_trace=True))

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0] * len(self.names)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[sid] - self.start[sid]
        return [self.end[i] - self.start[i] - covered[i] for i in range(len(self.names))]

    def by_name(self, phase: int) -> dict[str, list[int]]:
        """Self times in ns, grouped by span name, for spans of one phase."""
        out: dict[str, list[int]] = {}
        for sid, own in enumerate(self.self_times()):
            if self.phase_of[sid] == phase:
                out.setdefault(self.names[sid], []).append(own)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": self.parent[sid],
                            "trace": self.trace[sid],
                            "name": name,
                            "start_ns": self.start[sid],
                            "end_ns": self.end[sid],
                            "phase": "setup" if self.phase_of[sid] == SETUP else "timed",
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def spanned(tracer: Tracer, name: str | Callable[..., str]) -> Callable[[Callable], Callable]:
    """Wrapper factory: record a span named ``name`` (or ``name(*args)``) per call."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = tracer.open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)

        return wrapper

    return make


def counted(tracer: Tracer, key: str) -> Callable[[Callable], Callable]:
    """Wrapper factory for hot helpers that get a call count but no span."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    return make


def _short_kind(kind) -> str:
    return "a" if kind.value == "structural" else "b"


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from amg import corpus, detector, harness, pe_mods, pe_model, signals, validity
    from amg.agents import DqnAgent, PpoAgent, RandomAgent
    from amg.detector import boost, features
    from amg.rl import env, observation

    fn = patches.function
    fn(corpus, "generate", spanned(tracer, "corpus.generate"))
    fn(detector, "train_detector", spanned(
        tracer, lambda kind, *a, **k: f"detector.train_detector.{_short_kind(kind)}"))
    fn(pe_mods, "build_pool", spanned(tracer, "pe_mods.build_pool"))

    for name in ("parse", "check_invariants", "parse_imports", "serialize"):
        fn(pe_model, name, spanned(tracer, f"pe_model.{name}"))
    fn(pe_model, "read_virtual", counted(tracer, "pe_model.read_virtual"))

    fn(features, "extract_features_structural", spanned(tracer, "detector.a.features"))
    fn(features, "extract_features_bigram", spanned(tracer, "detector.b.features"))
    fn(signals, "count_motif_hits", spanned(tracer, "signals.count_motif_hits"))
    patches.method(detector.Detector, "classify", spanned(
        tracer, lambda det, raw: f"detector.{_short_kind(det.kind)}.classify"))
    patches.method(boost.BoostedStumps, "margin_one", spanned(tracer, "detector.boost.margin_one"))

    fn(observation, "observe", spanned(tracer, "rl.observe"))
    patches.method(env.RewriteEnv, "step", spanned(tracer, "rl.env.step"))
    patches.method(env.RewriteEnv, "reset", spanned(tracer, "rl.env.reset"))

    for cls, methods in (
        (PpoAgent, ("select_action", "record", "end_episode")),
        (DqnAgent, ("select_action", "record", "end_episode")),
        (RandomAgent, ("select_action",)),
    ):
        for method in methods:
            patches.method(cls, method, spanned(tracer, f"agents.{cls.kind}.{method}"))

    def apply_outcomes(apply):
        @functools.wraps(apply)
        def wrapper(img, action, *args, **kwargs):
            result = apply(img, action, *args, **kwargs)
            if tracer.enabled:
                tracer.counts["pe_mods.apply_action.attempts"] += 1
                tracer.counts[f"pe_mods.apply_action.{result.outcome.value}"] += 1
            return result

        return wrapper

    def action_name(img, action, *args, **kwargs) -> str:
        action_id = getattr(action, "id", action)
        return f"pe_mods.apply_action.{ACTION_NAMES[pe_mods.ActionId(action_id)]}"

    fn(pe_mods, "apply_action", apply_outcomes)
    fn(pe_mods, "apply_action", spanned(tracer, action_name))

    patches.method(validity.StructuralBackend, "reports_for", spanned(tracer, "validity.reports_for"))
    fn(validity, "evaluate_validity", spanned(tracer, "validity.evaluate_validity"))
    fn(validity, "run_validity_suite", spanned(tracer, "validity.run_validity_suite"))

    for name in ("train_agent", "evaluate_policy", "transferability", "run_workflow"):
        fn(harness, name, spanned(tracer, f"harness.{name}"))


# ---------------------------------------------------------------------------
# per-layer metrics

#: Functions timed in the set-up phase: one op is one set-up.
SETUP_SPANS = (
    "corpus.generate",
    "detector.train_detector.a",
    "detector.train_detector.b",
    "pe_mods.build_pool",
)

#: Functions timed in the measured phase; ``calls_per_op`` divides by the
#: workload's ops (detector queries, or file x action validations).
TIMED_SPANS = (
    "pe_model.parse",
    "pe_model.check_invariants",
    "pe_model.parse_imports",
    "pe_model.serialize",
    "detector.a.features",
    "detector.b.features",
    "detector.a.classify",
    "detector.b.classify",
    "detector.boost.margin_one",
    "signals.count_motif_hits",
    "rl.observe",
    "rl.env.step",
    "rl.env.reset",
    "agents.ppo.select_action",
    "agents.ppo.record",
    "agents.ppo.end_episode",
    "agents.dqn.select_action",
    "agents.dqn.record",
    "agents.dqn.end_episode",
    "agents.random.select_action",
    *(f"pe_mods.apply_action.{a}" for a in ACTION_NAMES.values()),
    "validity.reports_for",
    "validity.evaluate_validity",
    "harness.train_agent",
    "harness.evaluate_policy",
    "harness.transferability",
)


def layer_metrics(tracer: Tracer, ops: int, timed_ns: int, setup_ns: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit).

    ``share`` is a function's total self time over the phase's wall time; a
    function that never ran reports zero calls, zero self time and zero share.
    """
    out: dict[str, tuple[float, str]] = {}
    setup = tracer.by_name(SETUP)
    for name in SETUP_SPANS:
        times = setup.get(name, [])
        out[f"{name}.self_us_p50"] = (statistics.median(times) / 1e3 if times else 0.0, "us")
        out[f"{name}.share"] = (sum(times) / setup_ns if setup_ns else 0.0, "fraction")
    timed = tracer.by_name(TIMED)
    for name in TIMED_SPANS:
        times = timed.get(name, [])
        out[f"{name}.calls_per_op"] = (len(times) / ops, "calls/op")
        out[f"{name}.self_us_p50"] = (statistics.median(times) / 1e3 if times else 0.0, "us")
        out[f"{name}.share"] = (sum(times) / timed_ns, "fraction")
    out["pe_model.read_virtual.calls_per_op"] = (
        tracer.counts["pe_model.read_virtual"] / ops, "calls/op")
    attempts = tracer.counts["pe_mods.apply_action.attempts"]
    out["pe_mods.applied_ratio"] = (
        tracer.counts["pe_mods.apply_action.applied"] / attempts if attempts else 0.0, "fraction")
    return out
