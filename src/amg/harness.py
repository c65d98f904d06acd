"""Experiment orchestration: splits, training loops, staged model selection,
evasion-rate accounting, and transfer measurement.

The staged workflow mirrors a fixed protocol: sweep the step budget, sweep
learning rate x discount on the best budget, extend training for the top
configurations, pick one winner on validation files, then report test-set
evasion beside a random baseline and the winner's cross-classifier transfer
rate.  Every stage evaluates on files the classifier actually detects
(undetected originals are excluded from denominators before any rewriting).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, asdict, replace
from pathlib import Path

import numpy as np

from .agents import AgentHyper, make_agent
from .detector import Detector, DetectorKind, Verdict, train_detector
from .memo import ContentMemo
from .pe_mods import ACTION_COUNT, BenignContentPool, build_pool
from .rl import AlreadyBenign, N_OBSERVATION, RewriteEnv

#: Observations the memo a workflow shares among its envs keeps, least
#: recently used out first, like the detectors' margin memos.
OBSERVATION_MEMO_ENTRIES = 4096


class EmptyDenominator(ValueError):
    """Raised when an evasion rate is requested over zero eligible files."""


def evasion_rate(evaded: int, eligible: int) -> float:
    """Fraction of eligible (originally detected) files whose rewrite evades."""
    if eligible == 0:
        raise EmptyDenominator("no eligible files: every original went undetected")
    if not 0 <= evaded <= eligible:
        raise ValueError(f"evaded {evaded} out of range for eligible {eligible}")
    return evaded / eligible


def truncated_percent(evaded: int, eligible: int) -> float:
    """Evasion rate as a percentage truncated (not rounded) to two decimals.

    Integer arithmetic keeps the truncation exact: 7 of 13 gives 53.84.
    """
    if eligible == 0:
        raise EmptyDenominator("no eligible files: every original went undetected")
    return (evaded * 10000 // eligible) / 100


# ---------------------------------------------------------------------------
# corpus splits


#: Train, validation and test shares of a split.
SPLIT_RATIOS = (4, 1, 2)


def split_indexed(items: list) -> tuple[list, list, list]:
    """Deterministic proportional three-way split in list order."""
    total = sum(SPLIT_RATIOS)
    n = len(items)
    cut1 = n * SPLIT_RATIOS[0] // total
    cut2 = n * (SPLIT_RATIOS[0] + SPLIT_RATIOS[1]) // total
    return items[:cut1], items[cut1:cut2], items[cut2:]


@dataclass
class World:
    """Everything an experiment needs: classifiers, content pool, splits."""

    detector_a: Detector
    detector_b: Detector
    pool: BenignContentPool
    mal_train: list[bytes]
    mal_val: list[bytes]
    mal_test: list[bytes]
    ben_train: list[bytes]
    ben_val: list[bytes]
    ben_test: list[bytes]


def prepare_world(
    malicious: list[bytes],
    benign: list[bytes],
    seed: int,
) -> World:
    mal_train, mal_val, mal_test = split_indexed(malicious)
    ben_train, ben_val, ben_test = split_indexed(benign)
    labeled = [(raw, 1) for raw in mal_train] + [(raw, 0) for raw in ben_train]
    det_a = train_detector(DetectorKind.STRUCTURAL, labeled, seed=seed)
    det_b = train_detector(DetectorKind.BIGRAM, labeled, seed=seed)
    return World(
        detector_a=det_a,
        detector_b=det_b,
        pool=build_pool(ben_train),
        mal_train=mal_train,
        mal_val=mal_val,
        mal_test=mal_test,
        ben_train=ben_train,
        ben_val=ben_val,
        ben_test=ben_test,
    )


# ---------------------------------------------------------------------------
# training and evaluation loops


def _play(agent, env: RewriteEnv):
    """Drive one episode: reset ``env``, then yield each transition until it
    is done. ``reset`` raises ``AlreadyBenign`` for an undetected original."""
    obs = env.reset()
    while not env.done:
        transition = env.step(agent.select_action(obs))
        yield transition
        obs = transition.next_observation


def train_agent(
    kind: str,
    files: list[bytes],
    classify,
    pool: BenignContentPool,
    max_steps: int,
    episodes: int,
    hyper: AgentHyper | None = None,
    *,
    seed: int,
    observations: ContentMemo | None = None,
):
    """Train one agent by sampling episodes over the given files.  Every
    episode's env takes the states met before from ``observations``; with
    none given, it observes its start and every applied step, counting only
    the bytes each step changed."""
    agent = make_agent(kind, N_OBSERVATION, ACTION_COUNT, hyper, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(episodes):
        raw = files[int(rng.integers(len(files)))]
        try:
            for transition in _play(agent, RewriteEnv(raw, classify, pool, max_steps, seed, observations)):
                agent.record(transition)
        except AlreadyBenign:
            continue
        agent.end_episode()
    return agent


class Tally:
    """Evasions over the files (or pairs) a classifier detected at the start,
    counted from one verdict each: ``None`` for one it did not detect, which
    is ``excluded`` and never enters the rate, else whether it evaded."""

    def __init__(self, verdicts):
        verdicts = list(verdicts)
        self.excluded = verdicts.count(None)
        self.eligible = len(verdicts) - self.excluded
        self.evaded = verdicts.count(True)

    @property
    def rate(self) -> float:
        return evasion_rate(self.evaded, self.eligible)

    @property
    def percent(self) -> float:
        return truncated_percent(self.evaded, self.eligible)

    def to_dict(self) -> dict:
        return {
            "evaded": self.evaded,
            "eligible": self.eligible,
            "excluded": self.excluded,
            "percent": self.percent,
        }


@dataclass(frozen=True)
class Episode:
    """One eligible file's evaluation: its original bytes, one ``(action,
    seed, outcome value)`` per step, whether it evaded (only the last step
    can) and, when pairs are collected, the evading bytes."""

    original: bytes
    steps: tuple[tuple[int, int, str], ...]
    evaded: bool
    rewrite: bytes | None


@dataclass
class EvalResult(Tally):
    """One evaluation: one record per file in file order, ``None`` for an
    excluded one; the tally and ``queries`` are read from them, and so are
    ``pairs``, the evaded (original, rewrite) pairs when collected, unless
    given (``dataclasses.replace`` swaps them to tamper with a result)."""

    episodes: list[Episode | None]
    pairs: list[tuple[bytes, bytes]] | None = None

    def __post_init__(self):
        super().__init__(None if e is None else e.evaded for e in self.episodes)
        if self.pairs is None:
            self.pairs = [(e.original, e.rewrite) for e in self.episodes if e and e.rewrite is not None]

    @property
    def queries(self) -> int:
        """The eligible files' queries: one at reset and one per step."""
        return sum(1 + len(e.steps) for e in self.episodes if e)


def evaluate_policy(
    agent,
    files: list[bytes],
    classify,
    pool: BenignContentPool,
    max_steps: int,
    seed: int,
    collect_pairs: bool = False,
    observations: ContentMemo | None = None,
) -> EvalResult:
    """Run one episode per file; undetected originals never enter the count.

    ``EvalResult.queries`` counts the queries of the eligible files' episodes
    only: the screening query that finds an original undetected is made but
    not counted.  Every env takes the states met before from
    ``observations``; with none given, it observes its start and every
    applied step, counting only the bytes each step changed.
    """
    episodes: list[Episode | None] = []
    for raw in files:
        env = RewriteEnv(raw, classify, pool, max_steps, seed, observations)
        steps, evaded = [], False
        try:
            for transition in _play(agent, env):
                steps.append((transition.action, transition.info["seed"], transition.info["outcome"]))
                evaded = transition.info["evaded"]
        except AlreadyBenign:
            episodes.append(None)
            continue
        rewrite = env.current_bytes if evaded and collect_pairs else None
        episodes.append(Episode(raw, tuple(steps), evaded, rewrite))
    return EvalResult(episodes)


def transferability(pairs: list[tuple[bytes, bytes]], classify_b) -> Tally:
    """Submit finished rewrites to a second classifier.

    Only pairs whose original the second classifier detects count toward the
    denominator; the rewrite succeeds if it comes back non-malicious.
    """
    return Tally(
        None if classify_b(original) is not Verdict.MALICIOUS
        else classify_b(rewrite) is not Verdict.MALICIOUS
        for original, rewrite in pairs
    )


# ---------------------------------------------------------------------------
# staged workflow


@dataclass
class ExperimentPlan:
    """Stage sizes for the selection workflow; one iteration is a block of
    episodes, fifty by default."""

    max_steps_grid: tuple = (5, 10, 20, 50, 100, 200)
    alpha_grid: tuple = (0.01, 0.001, 0.0001)
    gamma_grid: tuple = (0.5, 0.75, 0.9, 0.99)
    agents: tuple = ("dqn", "pg", "ppo")
    episodes_per_iteration: int = 50
    sweep_iterations: int = 100
    grid_iterations: int = 100
    extended_iterations: int = 900
    top_k: int = 4
    seed: int = 0

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("max_steps_grid", "alpha_grid", "gamma_grid", "agents"):
            d[key] = list(d[key])
        return d


def quick_plan(seed: int) -> ExperimentPlan:
    """A plan sized for minutes, not hours: trimmed grids, short stages.

    The full default plan is a long-haul configuration; this one keeps every
    stage and decision rule intact while fitting in an ordinary test budget.
    """
    return ExperimentPlan(
        max_steps_grid=(5, 10),
        alpha_grid=(0.001,),
        gamma_grid=(0.9, 0.99),
        agents=("dqn", "pg", "ppo"),
        episodes_per_iteration=50,
        sweep_iterations=4,
        grid_iterations=4,
        extended_iterations=12,
        top_k=4,
        seed=seed,
    )


def micro_plan(seed: int) -> ExperimentPlan:
    """Smallest plan that still walks every stage; sized for test suites."""
    return ExperimentPlan(
        max_steps_grid=(5, 10),
        alpha_grid=(0.001,),
        gamma_grid=(0.9,),
        agents=("ppo",),
        episodes_per_iteration=10,
        sweep_iterations=2,
        grid_iterations=2,
        extended_iterations=4,
        top_k=2,
        seed=seed,
    )


@dataclass
class ConfigResult:
    agent_kind: str
    max_steps: int
    alpha: float
    gamma: float
    validation: Tally
    stage: str

    def sort_key(self):
        # best first: high rate, then small budget, small alpha, small gamma
        return (-self.validation.rate, self.max_steps, self.alpha, self.gamma, self.agent_kind)

    def to_dict(self) -> dict:
        return {
            "agent": self.agent_kind,
            "max_steps": self.max_steps,
            "alpha": self.alpha,
            "gamma": self.gamma,
            "evaded": self.validation.evaded,
            "eligible": self.validation.eligible,
            "percent": self.validation.percent,
            "stage": self.stage,
        }


def _run_stage(
    world: World,
    jobs: list[tuple[str, int, float, float]],
    episodes: int,
    seed: int,
    stage: str,
    observations: ContentMemo,
) -> tuple[list[ConfigResult], object]:
    """Train each (kind, max_steps, alpha, gamma) job against detector A and
    validate it; return the rows best first and the best row's agent. Jobs
    share nothing but ``observations``, which changes no result. Other
    agents are dropped once rated: a DQN agent's replay reserves 43.5 MB
    (20,000 state rows of 272 float64) and touches all of it once it has
    written 20,000 states."""
    rows: list[ConfigResult] = []
    best = None
    for kind, max_steps, alpha, gamma in jobs:
        agent = train_agent(
            kind,
            world.mal_train,
            world.detector_a.classify,
            world.pool,
            max_steps=max_steps,
            episodes=episodes,
            hyper=AgentHyper(alpha=alpha, gamma=gamma),
            seed=seed,
            observations=observations,
        )
        result = evaluate_policy(
            agent,
            world.mal_val,
            world.detector_a.classify,
            world.pool,
            max_steps=max_steps,
            seed=seed + 10_000,
            observations=observations,
        )
        row = ConfigResult(kind, max_steps, alpha, gamma, result, stage)
        if best is None or row.sort_key() < best[0].sort_key():
            best = (row, agent)
        rows.append(row)
    rows.sort(key=ConfigResult.sort_key)
    return rows, best[1]


def run_workflow(world: World, plan: ExperimentPlan, out_dir: str | Path | None = None) -> dict:
    """Execute all five stages and return (and optionally write) the report.

    The workflow queries copies of the world's detectors, so it starts with
    empty margin memos, as a newly loaded detector does.  Its envs share one
    observation memo, so a content every stage meets is encoded once.  All
    these memos go when it returns.
    """
    t0 = time.time()
    world = replace(world, detector_a=world.detector_a.fresh(), detector_b=world.detector_b.fresh())
    observations = ContentMemo(OBSERVATION_MEMO_ENTRIES)
    seed = plan.seed
    report: dict = {"plan": plan.to_dict(), "stages": {}}

    # Stage 1: step-budget sweep per agent kind at default alpha/gamma; rows
    # are grouped by kind in plan order, best first within each kind.
    sweep, _ = _run_stage(
        world,
        [(kind, max_steps, AgentHyper.alpha, AgentHyper.gamma)
         for kind in plan.agents for max_steps in plan.max_steps_grid],
        plan.sweep_iterations * plan.episodes_per_iteration, seed, "sweep", observations,
    )
    sweep.sort(key=lambda row: plan.agents.index(row.agent_kind))
    best_steps: dict[str, int] = {}
    for row in sweep:
        best_steps.setdefault(row.agent_kind, row.max_steps)
    report["stages"]["sweep"] = [row.to_dict() for row in sweep]
    report["best_max_steps"] = best_steps

    # Stage 2: learning-rate x discount grid at each agent's chosen budget.
    grid, _ = _run_stage(
        world,
        [
            (kind, best_steps[kind], alpha, gamma)
            for kind in plan.agents
            for alpha in plan.alpha_grid
            for gamma in plan.gamma_grid
        ],
        plan.grid_iterations * plan.episodes_per_iteration, seed, "grid", observations,
    )
    report["stages"]["grid"] = [row.to_dict() for row in grid]

    # Stage 3 and 4: extend training for the leading configurations and
    # re-validate.
    extended, winner_agent = _run_stage(
        world,
        [(row.agent_kind, row.max_steps, row.alpha, row.gamma) for row in grid[: plan.top_k]],
        plan.extended_iterations * plan.episodes_per_iteration, seed, "extended", observations,
    )
    report["stages"]["extended"] = [row.to_dict() for row in extended]
    winner = extended[0]
    report["winner"] = winner.to_dict()

    # Stage 5: test evaluation, random baseline, and cross-classifier
    # transfer for the winner.
    test_result = evaluate_policy(
        winner_agent,
        world.mal_test,
        world.detector_a.classify,
        world.pool,
        max_steps=winner.max_steps,
        seed=seed + 20_000,
        collect_pairs=True,
        observations=observations,
    )
    baseline = make_agent("random", N_OBSERVATION, ACTION_COUNT, seed=seed)
    baseline_result = evaluate_policy(
        baseline,
        world.mal_test,
        world.detector_a.classify,
        world.pool,
        max_steps=winner.max_steps,
        seed=seed + 20_000,
        observations=observations,
    )
    transfer = transferability(test_result.pairs, world.detector_b.classify)
    report["test"] = {
        "winner": test_result.to_dict(),
        "random_baseline": baseline_result.to_dict(),
        # nothing eligible is a result here, not an error
        "transfer": transfer.to_dict() if transfer.eligible else {
            "evaded": 0, "eligible": 0, "excluded": transfer.excluded, "percent": None},
    }
    report["elapsed_seconds"] = round(time.time() - t0, 1)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "workflow.json").write_text(json.dumps(report, indent=2, sort_keys=True))
        (out / "workflow.txt").write_text(render_report(report))
    return report


# ---------------------------------------------------------------------------
# rendering


def _render_rows(rows: list[dict]) -> list[str]:
    header = f"{'agent':8s} {'steps':>5s} {'alpha':>8s} {'gamma':>6s} {'evaded':>7s} {'eligible':>8s} {'rate%':>7s}"
    out = [header, "-" * len(header)]
    for r in rows:
        out.append(
            f"{r['agent']:8s} {r['max_steps']:5d} {r['alpha']:8.4f} {r['gamma']:6.2f} "
            f"{r['evaded']:7d} {r['eligible']:8d} {r['percent']:7.2f}"
        )
    return out


def render_report(report: dict) -> str:
    lines: list[str] = []
    for stage in ("sweep", "grid", "extended"):
        rows = report.get("stages", {}).get(stage)
        if not rows:
            continue
        lines.append(f"== {stage} ==")
        lines.extend(_render_rows(rows))
        lines.append("")
    winner = report.get("winner")
    if winner:
        lines.append(
            "winner: {agent} steps={max_steps} alpha={alpha} gamma={gamma} "
            "validation={percent:.2f}%".format(**winner)
        )
    test = report.get("test")
    if test:
        w, b, t = test["winner"], test["random_baseline"], test["transfer"]
        lines.append(
            f"test evasion:   {w['evaded']}/{w['eligible']} = {w['percent']:.2f}% "
            f"(excluded {w['excluded']})"
        )
        lines.append(
            f"random baseline: {b['evaded']}/{b['eligible']} = {b['percent']:.2f}% "
            f"(excluded {b['excluded']})"
        )
        if t["percent"] is None:
            lines.append("transfer:        no eligible pairs")
        else:
            lines.append(
                f"transfer:        {t['evaded']}/{t['eligible']} = {t['percent']:.2f}% "
                f"(excluded {t['excluded']})"
            )
    if "elapsed_seconds" in report:
        lines.append(f"elapsed: {report['elapsed_seconds']}s")
    return "\n".join(lines) + "\n"
