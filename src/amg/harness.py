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
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .agents import AgentHyper, make_agent
from .detector import Detector, DetectorKind, Verdict, train_detector
from .pe_mods import ACTION_COUNT, BenignContentPool, build_pool
from .rl import AlreadyBenign, EnvConfig, N_OBSERVATION, RewriteEnv

DQN_EVAL_EPSILON = 0.05


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


def split_indexed(items: list, ratios: tuple[int, int, int] = (4, 1, 2)) -> tuple[list, list, list]:
    """Deterministic proportional three-way split in list order."""
    total = sum(ratios)
    n = len(items)
    cut1 = n * ratios[0] // total
    cut2 = n * (ratios[0] + ratios[1]) // total
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
    seed: int = 0,
    detector_overrides: dict | None = None,
) -> World:
    mal_train, mal_val, mal_test = split_indexed(malicious)
    ben_train, ben_val, ben_test = split_indexed(benign)
    labeled = [(raw, 1) for raw in mal_train] + [(raw, 0) for raw in ben_train]
    overrides = detector_overrides or {}
    det_a = train_detector(DetectorKind.STRUCTURAL, labeled, seed=seed, **overrides)
    det_b = train_detector(DetectorKind.BIGRAM, labeled, seed=seed, **overrides)
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


def _select(agent, obs):
    """Training and evaluation both keep a little stochasticity so a policy
    cannot pin itself to one useless action: DQN acts at a fixed
    epsilon = DQN_EVAL_EPSILON (0.05) in training as well, so its own epsilon
    schedule never acts; policy learners sample from their distribution."""
    if agent.kind == "dqn":
        return agent.select_action(obs, epsilon=DQN_EVAL_EPSILON)
    return agent.select_action(obs)


def train_agent(
    kind: str,
    files: list[bytes],
    classify,
    pool: BenignContentPool,
    max_steps: int,
    episodes: int,
    hyper: AgentHyper | None = None,
    seed: int = 0,
):
    """Train one agent by sampling episodes over the given files."""
    agent = make_agent(kind, N_OBSERVATION, ACTION_COUNT, hyper, seed=seed)
    rng = np.random.default_rng(seed)
    config = EnvConfig(max_steps=max_steps, seed=seed)
    for _ in range(episodes):
        raw = files[int(rng.integers(len(files)))]
        env = RewriteEnv(raw, classify, pool, config)
        try:
            obs = env.reset()
        except AlreadyBenign:
            continue
        while not env.done:
            action = _select(agent, obs)
            transition = env.step(action)
            agent.record(transition)
            obs = transition.next_observation
        agent.end_episode()
    return agent


@dataclass
class EvalResult:
    evaded: int
    eligible: int
    excluded: int
    pairs: list[tuple[bytes, bytes]] = field(default_factory=list)
    queries: int = 0

    @property
    def rate(self) -> float:
        return evasion_rate(self.evaded, self.eligible)

    @property
    def percent(self) -> float:
        return truncated_percent(self.evaded, self.eligible)


def evaluate_policy(
    agent,
    files: list[bytes],
    classify,
    pool: BenignContentPool,
    max_steps: int,
    seed: int = 0,
    collect_pairs: bool = False,
) -> EvalResult:
    """Run one episode per file; undetected originals never enter the count."""
    config = EnvConfig(max_steps=max_steps, seed=seed)
    evaded = eligible = excluded = queries = 0
    pairs: list[tuple[bytes, bytes]] = []
    for raw in files:
        env = RewriteEnv(raw, classify, pool, config)
        try:
            obs = env.reset()
        except AlreadyBenign:
            excluded += 1
            continue
        eligible += 1
        hit = False
        while not env.done:
            action = _select(agent, obs)
            transition = env.step(action)
            obs = transition.next_observation
            hit = transition.info["evaded"]
        if hit:
            evaded += 1
            if collect_pairs:
                pairs.append((raw, env.current_bytes))
        queries += env.queries
    return EvalResult(evaded, eligible, excluded, pairs, queries)


@dataclass
class TransferResult:
    evaded: int
    eligible: int
    excluded: int

    @property
    def rate(self) -> float:
        return evasion_rate(self.evaded, self.eligible)

    @property
    def percent(self) -> float:
        return truncated_percent(self.evaded, self.eligible)


def transferability(pairs: list[tuple[bytes, bytes]], classify_b) -> TransferResult:
    """Submit finished rewrites to a second classifier.

    Only pairs whose original the second classifier detects count toward the
    denominator; the rewrite succeeds if it comes back non-malicious.
    """
    evaded = eligible = excluded = 0
    for original, rewrite in pairs:
        if classify_b(original) is not Verdict.MALICIOUS:
            excluded += 1
            continue
        eligible += 1
        if classify_b(rewrite) is not Verdict.MALICIOUS:
            evaded += 1
    return TransferResult(evaded, eligible, excluded)


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


def quick_plan(seed: int = 0) -> ExperimentPlan:
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


def micro_plan(seed: int = 0) -> ExperimentPlan:
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
    evaded: int
    eligible: int
    stage: str

    @property
    def rate(self) -> float:
        return evasion_rate(self.evaded, self.eligible)

    def sort_key(self):
        # best first: high rate, then small budget, small alpha, small gamma
        return (-self.rate, self.max_steps, self.alpha, self.gamma, self.agent_kind)

    def to_dict(self) -> dict:
        return {
            "agent": self.agent_kind,
            "max_steps": self.max_steps,
            "alpha": self.alpha,
            "gamma": self.gamma,
            "evaded": self.evaded,
            "eligible": self.eligible,
            "percent": truncated_percent(self.evaded, self.eligible),
            "stage": self.stage,
        }


def _train_and_validate(
    world: World,
    kind: str,
    max_steps: int,
    alpha: float,
    gamma: float,
    episodes: int,
    seed: int,
    stage: str,
) -> tuple[ConfigResult, object]:
    hyper = AgentHyper(alpha=alpha, gamma=gamma)
    agent = train_agent(
        kind,
        world.mal_train,
        world.detector_a.classify,
        world.pool,
        max_steps=max_steps,
        episodes=episodes,
        hyper=hyper,
        seed=seed,
    )
    result = evaluate_policy(
        agent,
        world.mal_val,
        world.detector_a.classify,
        world.pool,
        max_steps=max_steps,
        seed=seed + 10_000,
    )
    return (
        ConfigResult(kind, max_steps, alpha, gamma, result.evaded, result.eligible, stage),
        agent,
    )


def run_workflow(world: World, plan: ExperimentPlan, out_dir: str | Path | None = None) -> dict:
    """Execute all five stages and return (and optionally write) the report."""
    t0 = time.time()
    seed = plan.seed
    report: dict = {"plan": plan.to_dict(), "stages": {}}

    # Stage 1: step-budget sweep per agent kind at default alpha/gamma.
    default_alpha, default_gamma = 0.001, 0.9
    sweep_rows: list[ConfigResult] = []
    best_steps: dict[str, int] = {}
    episodes = plan.sweep_iterations * plan.episodes_per_iteration
    for kind in plan.agents:
        rows = []
        for max_steps in plan.max_steps_grid:
            row, _ = _train_and_validate(
                world, kind, max_steps, default_alpha, default_gamma,
                episodes, seed, "sweep",
            )
            rows.append(row)
        rows.sort(key=ConfigResult.sort_key)
        best_steps[kind] = rows[0].max_steps
        sweep_rows.extend(rows)
    report["stages"]["sweep"] = [r.to_dict() for r in sweep_rows]
    report["best_max_steps"] = dict(best_steps)

    # Stage 2: learning-rate x discount grid at each agent's chosen budget.
    grid_rows: list[ConfigResult] = []
    episodes = plan.grid_iterations * plan.episodes_per_iteration
    for kind in plan.agents:
        for alpha in plan.alpha_grid:
            for gamma in plan.gamma_grid:
                row, _ = _train_and_validate(
                    world, kind, best_steps[kind], alpha, gamma,
                    episodes, seed, "grid",
                )
                grid_rows.append(row)
    grid_rows.sort(key=ConfigResult.sort_key)
    report["stages"]["grid"] = [r.to_dict() for r in grid_rows]

    # Stage 3 and 4: extend training for the leading configurations and
    # re-validate.
    finalists = grid_rows[: plan.top_k]
    episodes = plan.extended_iterations * plan.episodes_per_iteration
    extended_rows: list[ConfigResult] = []
    extended_agents = {}
    for fin in finalists:
        row, agent = _train_and_validate(
            world, fin.agent_kind, fin.max_steps, fin.alpha, fin.gamma,
            episodes, seed, "extended",
        )
        extended_rows.append(row)
        extended_agents[id(row)] = agent
    extended_rows.sort(key=ConfigResult.sort_key)
    report["stages"]["extended"] = [r.to_dict() for r in extended_rows]
    winner = extended_rows[0]
    winner_agent = extended_agents[id(winner)]
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
    )
    baseline = make_agent("random", N_OBSERVATION, ACTION_COUNT, seed=seed)
    baseline_result = evaluate_policy(
        baseline,
        world.mal_test,
        world.detector_a.classify,
        world.pool,
        max_steps=winner.max_steps,
        seed=seed + 20_000,
    )
    transfer = transferability(test_result.pairs, world.detector_b.classify)
    report["test"] = {
        "winner": {
            "evaded": test_result.evaded,
            "eligible": test_result.eligible,
            "excluded": test_result.excluded,
            "percent": test_result.percent,
        },
        "random_baseline": {
            "evaded": baseline_result.evaded,
            "eligible": baseline_result.eligible,
            "excluded": baseline_result.excluded,
            "percent": baseline_result.percent,
        },
        "transfer": {
            "evaded": transfer.evaded,
            "eligible": transfer.eligible,
            "excluded": transfer.excluded,
            "percent": transfer.percent if transfer.eligible else None,
        },
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
