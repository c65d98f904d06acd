"""Set-up and the three workloads, driven only through amg's public API.

Every workload is a closed loop: the agent (or the validity suite) issues its
next operation only after the previous one returned.  A run repeats a
workload *unit* until the measured time is used up; unit ``i`` of a run with
seed ``s`` uses seed ``s * 1000 + i``, so no two units repeat the same work.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace

from amg import corpus, harness, validity
from amg.detector import Detector
from amg.pe_mods import ActionId
from amg.rl import AlreadyBenign, RewriteEnv

from . import checks, hostspeed

#: The long step budget of ``train_dqn_b``, the largest of the paper's grid
#: that a unit of seconds can afford.
DQN_MAX_STEPS = 50


@dataclass(frozen=True)
class Size:
    """How much work set-up and one unit do."""

    label: str = "full"  # selects the stored reference digests
    malicious: int = 245
    benign: int = 140
    setup_repeats: int = 3
    dqn_episodes: int = 120
    #: ``ExperimentPlan`` fields that differ from ``harness.micro_plan``.
    plan_overrides: tuple[tuple[str, int], ...] = ()


FULL = Size()
#: A few seconds per workload; used by the benchmark's own tests.
TINY = Size(
    label="tiny",
    malicious=49,
    benign=28,
    setup_repeats=1,
    dqn_episodes=4,
    plan_overrides=(
        ("episodes_per_iteration", 2),
        ("sweep_iterations", 1),
        ("grid_iterations", 1),
        ("extended_iterations", 1),
    ),
)


@dataclass
class Setup:
    world: harness.World
    held_out: list[tuple[str, bytes]]  # named malicious validation + test files


def build(seed: int, size: Size) -> Setup:
    """Generate the corpus, train detectors A and B and build the content pool."""
    files = corpus.generate(corpus.CorpusSpec(malicious=size.malicious, benign=size.benign, seed=seed))
    mal = [(f.name, f.data) for f in files if f.label == "malicious"]
    ben = [f.data for f in files if f.label == "benign"]
    world = harness.prepare_world([raw for _, raw in mal], ben, seed=seed)
    return Setup(world, mal[len(world.mal_train):])


class OpClock:
    """Counts operations and the time between consecutive ones.

    With ``burst_every`` set, every that many ops it also times the
    host-speed burst; the burst's time is left out of the gaps and recorded
    in ``excluded_ns``.
    """

    def __init__(self, burst_every: int = 0) -> None:
        self.ops = 0
        self.gaps_ns: list[int] = []
        self.active = True
        self.burst_every = burst_every
        self.bursts: list[int] = []
        self.excluded_ns = 0
        self._last: int | None = None

    def restart(self, stamp: bool = False) -> None:
        """Forget the last operation; with ``stamp`` the next gap starts now."""
        self._last = time.perf_counter_ns() if stamp else None

    def tick(self) -> None:
        if not self.active:
            return
        now = time.perf_counter_ns()
        if self._last is not None:
            self.gaps_ns.append(now - self._last)
        self._last = now
        self.ops += 1
        if self.burst_every and self.ops % self.burst_every == 0:
            self.bursts.append(hostspeed.burst_ns())
            resumed = time.perf_counter_ns()
            self.excluded_ns += resumed - now
            self._last = resumed


@dataclass
class Evaluation:
    """One ``evaluate_policy`` call as seen from outside."""

    classify: object
    result: harness.EvalResult
    counted_queries: int  # every query made during the call
    screened: int  # resets that found the original undetected
    collected_pairs: bool


@dataclass
class UnitOutput:
    digest_parts: list = field(default_factory=list)
    evaluations: list[Evaluation] = field(default_factory=list)
    rows: list[validity.ValidityRow] = field(default_factory=list)
    marks: list[int] = field(default_factory=list)


class RlWorkload:
    """Shared probes of the two reinforcement-learning workloads.

    An op is one detector query, counted at ``Detector.classify`` (the
    hard-label interface) for both detectors.  Resets that raise
    ``AlreadyBenign`` are counted at ``RewriteEnv.reset``, and each
    ``evaluate_policy`` call is captured so its query accounting and
    rewrites can be checked.
    """

    op = "detector query"

    def __init__(self, clock: OpClock) -> None:
        self.clock = clock
        self.evaluations: list[Evaluation] = []
        self.screened = 0

    def install(self, patches) -> None:
        clock = self.clock

        def count_queries(classify):
            @functools.wraps(classify)
            def wrapper(det, raw):
                clock.tick()
                return classify(det, raw)

            return wrapper

        def count_screened(reset):
            @functools.wraps(reset)
            def wrapper(env):
                try:
                    return reset(env)
                except AlreadyBenign:
                    self.screened += 1
                    raise

            return wrapper

        def capture(evaluate_policy):
            @functools.wraps(evaluate_policy)
            def wrapper(agent, files, classify, *args, **kwargs):
                queries, screened = clock.ops, self.screened
                result = evaluate_policy(agent, files, classify, *args, **kwargs)
                self.evaluations.append(Evaluation(
                    classify, result, clock.ops - queries, self.screened - screened,
                    kwargs.get("collect_pairs", False)))
                return result

            return wrapper

        patches.method(Detector, "classify", count_queries)
        patches.method(RewriteEnv, "reset", count_screened)
        patches.function(harness, "evaluate_policy", capture)

    def begin_unit(self) -> None:
        self.clock.restart()
        self.evaluations = []

    def check(self, out: UnitOutput, setup: Setup) -> list[str]:
        return checks.check_evaluations(out.evaluations)


def collected_rewrites(evaluations: list[Evaluation]) -> list[bytes]:
    return [rewrite for e in evaluations if e.collected_pairs for _, rewrite in e.result.pairs]


class WorkflowPpoA(RlWorkload):
    """The staged workflow of ``harness.micro_plan`` at two γ values, against detector A."""

    name = "workflow_ppo_a"

    def run_unit(self, setup: Setup, size: Size, seed: int) -> UnitOutput:
        self.begin_unit()
        plan = replace(
            harness.micro_plan(seed), gamma_grid=(0.9, 0.99), **dict(size.plan_overrides))
        report = harness.run_workflow(setup.world, plan)
        report.pop("elapsed_seconds")
        return UnitOutput(
            digest_parts=[report, collected_rewrites(self.evaluations)],
            evaluations=self.evaluations,
        )

    def check(self, out: UnitOutput, setup: Setup) -> list[str]:
        failures = super().check(out, setup)
        report, rewrites = out.digest_parts
        if report["test"]["winner"]["evaded"] != len(rewrites):
            failures.append("test evasions disagree with the collected rewrites")
        return failures


class TrainDqnB(RlWorkload):
    """DQN training with a long step budget against detector B, then test."""

    name = "train_dqn_b"

    def run_unit(self, setup: Setup, size: Size, seed: int) -> UnitOutput:
        self.begin_unit()
        world = setup.world
        agent = harness.train_agent(
            "dqn",
            world.mal_train,
            world.detector_b.classify,
            world.pool,
            max_steps=DQN_MAX_STEPS,
            episodes=size.dqn_episodes,
            seed=seed,
        )
        result = harness.evaluate_policy(
            agent,
            world.mal_test,
            world.detector_b.classify,
            world.pool,
            max_steps=DQN_MAX_STEPS,
            seed=seed + 10_000,
            collect_pairs=True,
        )
        summary = [result.evaded, result.eligible, result.excluded, result.queries]
        return UnitOutput(
            digest_parts=[summary, collected_rewrites(self.evaluations)],
            evaluations=self.evaluations,
        )


class RewriteValidate:
    """``run_validity_suite`` for all ten actions over the held-out files.

    An op is one file x action validation; its latency is stamped at the
    injected backend when a file's test reports return.
    """

    name = "rewrite_validate"
    op = "file x action validation"

    def __init__(self, clock: OpClock) -> None:
        self.clock = clock

    def install(self, patches) -> None:
        pass

    def run_unit(self, setup: Setup, size: Size, seed: int) -> UnitOutput:
        backend = StampingBackend(validity.StructuralBackend(), self.clock)
        rows, marks = [], []
        for action in ActionId:
            before = self.clock.ops
            self.clock.restart(stamp=True)
            rows.append(
                validity.run_validity_suite(setup.held_out, action, backend, setup.world.pool, seed=seed)
            )
            marks.append(self.clock.ops - before)
        return UnitOutput(digest_parts=[[r.to_dict() for r in rows]], rows=rows, marks=marks)

    def check(self, out: UnitOutput, setup: Setup) -> list[str]:
        return checks.check_validity_rows(out.rows, len(setup.held_out), out.marks)


class StampingBackend:
    """Report backend that ticks the clock when a file's test reports return."""

    def __init__(self, inner, clock: OpClock) -> None:
        self.inner = inner
        self.clock = clock

    def reports_for(self, file_id: str, data: bytes, role: str):
        reports = self.inner.reports_for(file_id, data, role)
        if role == "test":
            self.clock.tick()
        return reports


WORKLOADS = {w.name: w for w in (WorkflowPpoA, TrainDqnB, RewriteValidate)}
