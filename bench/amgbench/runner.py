"""One benchmark run: set-up, the measured loop, checks and metrics.

An untraced run reports the end-to-end metrics, with every time scaled to
nominal host speed (see ``hostspeed``).  A traced run sets up once under the
tracer, measures the workload untraced and then traced for the same number
of seconds, and reports per-layer metrics from the traced pass plus both
throughputs, which give the tracing overhead; its times are wall times.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checks, hostspeed, tracing
from .workloads import FULL, WORKLOADS, OpClock, Setup, Size, build

#: Reference digests of unit 0 per size label and workload, for one seed.
REFERENCE_PATH = Path(__file__).resolve().parent.parent / "reference.json"
#: Ops between two host-speed bursts in an untraced run (about 0.5 % of
#: its time).  Traced runs time no bursts, so spans hold no burst time.
BURST_EVERY = 50


@dataclass
class Pass:
    """The measured loop of one run, with or without tracing.

    ``elapsed_ns`` and ``gaps_ns`` are scaled to nominal host speed when the
    clock timed host-speed bursts, and are wall times otherwise.
    """

    ops: int
    elapsed_ns: float
    wall_ns: int
    gaps_ns: list[float]
    units: int
    failures: list[str]
    digest: str  # of unit 0, which every run executes

    @property
    def ops_per_s(self) -> float:
        return self.ops / (self.elapsed_ns / 1e9)


@dataclass
class RunResult:
    workload: str
    op: str
    seed: int
    metrics: dict[str, tuple[float, str]]
    notes: dict[str, str]
    attempted: int
    failures: list[str]
    digest: str
    reference: str  # "match", "mismatch" or "not checked"
    tracer: tracing.Tracer | None = field(default=None, repr=False)


@contextmanager
def paused(clock: OpClock, tracer: tracing.Tracer | None):
    clock.active = False
    if tracer is not None:
        tracer.enabled = False
    try:
        yield
    finally:
        clock.active = True
        if tracer is not None:
            tracer.enabled = True


def measure(workload, setup: Setup, size: Size, seed: int, seconds: float,
            tracer: tracing.Tracer | None = None) -> Pass:
    """Run units until ``seconds`` of unit wall time are spent (at least one unit).

    When the clock times host-speed bursts, each unit's times are divided
    by the host slowdown that the bursts during and right after it measured.
    """
    clock = workload.clock
    ops0 = clock.ops
    elapsed = 0.0
    wall = 0
    gaps: list[float] = []
    failures: list[str] = []
    first_digest = ""
    unit = 0
    while unit == 0 or wall < seconds * 1e9:
        unit_seed = seed * 1000 + unit
        gaps0, bursts0, excluded0 = len(clock.gaps_ns), len(clock.bursts), clock.excluded_ns
        t0 = time.perf_counter_ns()
        if tracer is None:
            out = workload.run_unit(setup, size, unit_seed)
        else:
            with tracer.span("bench.unit"):
                out = workload.run_unit(setup, size, unit_seed)
        unit_ns = time.perf_counter_ns() - t0 - (clock.excluded_ns - excluded0)
        slowdown = 1.0
        if clock.burst_every:
            slowdown = hostspeed.slowdown(clock.bursts[bursts0:] + hostspeed.sample(8))
        wall += unit_ns
        elapsed += unit_ns / slowdown
        gaps.extend(g / slowdown for g in clock.gaps_ns[gaps0:])
        with paused(clock, tracer):
            failures.extend(workload.check(out, setup))
            if unit == 0:
                first_digest = checks.digest(out.digest_parts)
        unit += 1
    return Pass(clock.ops - ops0, elapsed, wall, gaps, unit, failures, first_digest)


def _reference(name: str, seed: int, size: Size, digest: str) -> str:
    stored = json.loads(REFERENCE_PATH.read_text())
    if seed != stored["seed"]:
        return "not checked"
    expected = stored["digests"][size.label].get(name)
    return "match" if expected == digest else "mismatch"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: Size = FULL,
                 out_dir: Path | None = None) -> RunResult:
    if trace:
        return _traced(WORKLOADS[name](OpClock()), seed, seconds, size, out_dir)
    workload = WORKLOADS[name](OpClock(burst_every=BURST_EVERY))
    setup_s, setup_wall = [], []
    for _ in range(size.setup_repeats):
        setup = None  # let the previous world go before building the next
        before = hostspeed.sample(16)
        t0 = time.perf_counter()
        setup = build(seed, size)
        setup_wall.append(time.perf_counter() - t0)
        setup_s.append(setup_wall[-1] / hostspeed.slowdown(before + hostspeed.sample(16)))
    patches = tracing.Patches()
    workload.install(patches)
    try:
        p = measure(workload, setup, size, seed, seconds)
    finally:
        patches.restore()
    p50, p99 = np.percentile(np.asarray(p.gaps_ns) / 1e6, [50, 99])
    n = len(p.gaps_ns)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (p.ops_per_s, "1/s"),
        "op_ms_p50": (float(p50), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_s)} set-ups; wall median {statistics.median(setup_wall):.4f} s",
        "ops_per_s": f"{p.ops} ops in {p.elapsed_ns / 1e9:.2f} s over {p.units} units; "
                     f"wall {p.ops / (p.wall_ns / 1e9):.2f}/s, host slowdown {p.wall_ns / p.elapsed_ns:.3f}",
        "op_ms_p50": f"{n} samples; p99 {p99:.4f} ms with {n - int(np.ceil(0.99 * n))} beyond it",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    failures = list(p.failures)
    reference = _reference(name, seed, size, p.digest)
    if reference == "mismatch":
        failures.append(f"digest {p.digest} differs from the stored reference")
    return RunResult(name, workload.op, seed, metrics, notes, p.ops, failures, p.digest, reference)


def _traced(workload, seed: int, seconds: float, size: Size, out_dir: Path | None) -> RunResult:
    tracer = tracing.Tracer()
    patches = tracing.Patches()
    tracing.install(tracer, patches)
    try:
        t0 = time.perf_counter_ns()
        with tracer.span("bench.setup"):
            setup = build(seed, size)
        setup_ns = time.perf_counter_ns() - t0
    finally:
        patches.restore()

    probes = tracing.Patches()
    workload.install(probes)
    try:
        plain = measure(workload, setup, size, seed, seconds)
        tracer.set_phase(tracing.TIMED)
        tracing.install(tracer, patches)
        try:
            traced = measure(workload, setup, size, seed, seconds, tracer)
        finally:
            patches.restore()
    finally:
        probes.restore()

    metrics = tracing.layer_metrics(tracer, traced.ops, traced.elapsed_ns, setup_ns)
    metrics["trace.ops"] = (float(traced.ops), "count")
    metrics["trace.wall_ops_per_s_untraced"] = (plain.ops_per_s, "1/s")
    metrics["trace.wall_ops_per_s_traced"] = (traced.ops_per_s, "1/s")
    metrics["trace.overhead_pct"] = ((plain.ops_per_s / traced.ops_per_s - 1) * 100, "%")
    failures = plain.failures + traced.failures
    if plain.digest != traced.digest:
        failures.append("the traced pass produced a different digest from the untraced pass")
    reference = _reference(workload.name, seed, size, traced.digest)
    if reference == "mismatch":
        failures.append(f"digest {traced.digest} differs from the stored reference")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"{workload.name}.spans.jsonl")
    notes = {
        "trace.ops": f"{traced.units} units, {len(tracer.names)} spans",
        "trace.overhead_pct": "untraced / traced wall ops_per_s - 1",
    }
    return RunResult(workload.name, workload.op, seed, metrics, notes,
                     plain.ops + traced.ops, failures, traced.digest, reference, tracer)
