"""Command line front end.

Subcommands cover the full pipeline: generate a corpus, train and apply the
two classifiers, apply single rewrite actions, run the validity protocol,
train and evaluate rewriting agents, measure cross-classifier transfer, and
run the staged experiment report.

Exit codes: 0 on success, 1 when the requested operation ran but did not
succeed (a failed rewrite, an empty evaluation denominator), 2 on usage or
input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .agents import AGENT_KINDS, AgentHyper, CheckpointError, load_agent, save_agent
from .corpus import CorpusError, CorpusSpec, generate, load_corpus, write_corpus
from .detector import (
    DegenerateCorpus,
    Detector,
    DetectorFormatError,
    DetectorKind,
    Verdict,
    evaluate_accuracy,
    parse_kind,
    train_detector,
)
from .harness import (
    EmptyDenominator,
    ExperimentPlan,
    evaluate_policy,
    micro_plan,
    prepare_world,
    quick_plan,
    render_report,
    run_workflow,
    split_indexed,
    train_agent,
    transferability,
)
from .pe_model import PeError, parse as parse_pe, serialize as serialize_pe
from .pe_mods import (
    ACTION_COUNT,
    ACTION_NAMES,
    ActionId,
    Outcome,
    action_from_name,
    apply_action,
    build_pool,
)
from .rl import N_OBSERVATION
from .validity import StructuralBackend, run_validity_suite

_SPLITS = ("train", "val", "test")


class CliError(Exception):
    """Bad input reported cleanly instead of a traceback."""


def _workspace() -> Path:
    return Path(os.environ.get("AMG_WORKSPACE", "amg-workspace"))


def _kind(name: str) -> DetectorKind:
    """:func:`parse_kind` for argparse, which shows an ``ArgumentTypeError``'s own message."""
    try:
        return parse_kind(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_labeled(corpus_dir: str) -> tuple[list[tuple[str, bytes]], list[tuple[str, bytes]]]:
    """Read a corpus directory into (malicious, benign) name/bytes lists."""
    try:
        entries = load_corpus(corpus_dir)
    except FileNotFoundError as exc:
        raise CliError(f"corpus not found: {exc}") from exc
    mal = [(e.name, e.read()) for e in entries if e.label == "malicious"]
    ben = [(e.name, e.read()) for e in entries if e.label == "benign"]
    if not mal and not ben:
        raise CliError(f"no corpus entries under {corpus_dir}")
    return mal, ben


def _load_splits(corpus_dir: str):
    """Each label's name/bytes lists by split (``"train"``, ``"val"``,
    ``"test"``), and the content pool of the benign train split."""
    mal, ben = (dict(zip(_SPLITS, split_indexed(named))) for named in _load_labeled(corpus_dir))
    return mal, ben, build_pool([raw for _, raw in ben["train"]])


def _at_least_one(args, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if value < 1:
            raise CliError(f"--{name.replace('_', '-')} must be 1 or more, got {value}")


def _parse_action(text: str) -> ActionId:
    if text.isdigit():
        try:
            return ActionId(int(text))
        except ValueError as exc:
            raise CliError(f"unknown action id {text}") from exc
    try:
        return action_from_name(text)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_corpus(args) -> int:
    spec = CorpusSpec(malicious=args.malicious, benign=args.benign, seed=args.seed)
    files = generate(spec)
    out_dir = Path(args.out) if args.out else _workspace() / "corpus"
    manifest = write_corpus(files, out_dir, spec)
    print(f"wrote {spec.malicious} malicious + {spec.benign} benign files")
    print(f"manifest: {manifest}")
    return 0


def cmd_detector_train(args) -> int:
    mal, ben, _ = _load_splits(args.corpus)
    train = [(raw, 1) for _, raw in mal["train"]] + [(raw, 0) for _, raw in ben["train"]]
    det = train_detector(args.kind, train, seed=args.seed)
    out = Path(args.out) if args.out else _workspace() / "detectors" / f"{args.kind.value}.det"
    out.parent.mkdir(parents=True, exist_ok=True)
    det.save(out)
    for split in ("val", "test"):
        held = [(raw, 1) for _, raw in mal[split]] + [(raw, 0) for _, raw in ben[split]]
        if held:
            print(f"{split} accuracy: {evaluate_accuracy(det, held):.3f}")
    print(f"saved {args.kind.value} model: {out}")
    return 0


def cmd_detector_classify(args) -> int:
    det = Detector.load(args.model)
    rows = []
    for path in args.files:
        raw = Path(path).read_bytes()
        verdict = det.classify(raw)
        rows.append({"file": path, "verdict": verdict.value})
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        for row in rows:
            print(f"{row['file']}\t{row['verdict']}")
    return 0


def cmd_mutate(args) -> int:
    action = _parse_action(args.action)
    raw = Path(args.infile).read_bytes()
    img = parse_pe(raw)
    _, _, pool = _load_splits(args.corpus)
    result = apply_action(img, action, pool, seed=args.seed)
    name = ACTION_NAMES[action]
    if result.outcome is Outcome.FAILED:
        print(f"{name}: failed ({result.detail})", file=sys.stderr)
        return 1
    data = serialize_pe(result.image) if result.outcome is Outcome.APPLIED else raw
    Path(args.out).write_bytes(data)
    print(f"{name}: {result.outcome.value} ({len(data) - len(raw):+d} bytes) -> {args.out}")
    return 0


def cmd_validate(args) -> int:
    if args.limit < 0:
        raise CliError(f"--limit must be 0 (no cap) or positive, got {args.limit}")
    mal, _, pool = _load_splits(args.corpus)
    entries = [entry for split in _SPLITS for entry in mal[split]]
    entries = entries[: args.limit] if args.limit else entries
    backend = StructuralBackend()
    if args.action == "all":
        actions = list(ActionId)
    else:
        actions = [_parse_action(args.action)]
    rows = [
        run_validity_suite(entries, action, backend, pool, seed=args.seed)
        for action in actions
    ]
    if args.json:
        print(json.dumps([r.to_dict() for r in rows], indent=2))
    else:
        width = max(len(r.action) for r in rows)
        for r in rows:
            print(f"{r.action:<{width}s}  valid {r.valid:3d} / {r.total:3d}")
    return 0


def cmd_train(args) -> int:
    _at_least_one(args, "max_steps", "episodes")
    for name in ("alpha", "gamma"):
        if not math.isfinite(getattr(args, name)):
            raise CliError(f"--{name} must be a finite number, got {getattr(args, name)}")
    mal, _, pool = _load_splits(args.corpus)
    files = [raw for _, raw in mal["train"]]
    if not files:
        raise CliError(f"no malicious files in the train split of {args.corpus}")
    det = Detector.load(args.detector)
    hyper = AgentHyper(alpha=args.alpha, gamma=args.gamma)
    agent = train_agent(
        args.agent,
        files,
        det.classify,
        pool,
        max_steps=args.max_steps,
        episodes=args.episodes,
        hyper=hyper,
        seed=args.seed,
    )
    out = Path(args.out) if args.out else _workspace() / "agents" / f"{args.agent}.ckpt"
    out.parent.mkdir(parents=True, exist_ok=True)
    save_agent(out, agent)
    print(f"trained {args.agent} for {args.episodes} episodes "
          f"(max_steps={args.max_steps}) -> {out}")
    return 0


def _eval_from_args(args, detector: str, collect_pairs: bool = False):
    _at_least_one(args, "max_steps")
    mal, _, pool = _load_splits(args.corpus)
    files = [raw for _, raw in mal[args.split]]
    det = Detector.load(detector)
    agent = load_agent(args.agent, seed=args.seed)
    if (agent.obs_dim, agent.n_actions) != (N_OBSERVATION, ACTION_COUNT):
        raise CheckpointError(
            f"checkpoint is for {agent.obs_dim} observations and {agent.n_actions} actions; "
            f"the environment has {N_OBSERVATION} and {ACTION_COUNT}"
        )
    return evaluate_policy(
        agent,
        files,
        det.classify,
        pool,
        max_steps=args.max_steps,
        seed=args.seed,
        collect_pairs=collect_pairs,
    )


def cmd_evaluate(args) -> int:
    result = _eval_from_args(args, args.detector)
    try:
        percent = result.percent
    except EmptyDenominator:
        print("no eligible files: the classifier detected none of the originals",
              file=sys.stderr)
        return 1
    print(f"evasion: {result.evaded}/{result.eligible} = {percent:.2f}% "
          f"(excluded {result.excluded}, queries {result.queries})")
    return 0


def cmd_transfer(args) -> int:
    det_b = Detector.load(args.detector_b)
    result = _eval_from_args(args, args.detector_a, collect_pairs=True)
    try:
        percent_a = result.percent
    except EmptyDenominator:
        print("no eligible files for the source classifier", file=sys.stderr)
        return 1
    print(f"source evasion:  {result.evaded}/{result.eligible} = {percent_a:.2f}% "
          f"(excluded {result.excluded})")
    outcome = transferability(result.pairs, det_b.classify)
    if outcome.eligible == 0:
        print("transfer: no eligible pairs (second classifier detected no originals)")
        return 0
    print(f"transfer rate:   {outcome.evaded}/{outcome.eligible} = "
          f"{outcome.percent:.2f}% (excluded {outcome.excluded})")
    return 0


def cmd_report(args) -> int:
    mal, ben = _load_labeled(args.corpus)
    world = prepare_world([raw for _, raw in mal], [raw for _, raw in ben], seed=args.seed)
    plan = {"full": ExperimentPlan, "quick": quick_plan, "micro": micro_plan}[args.plan](seed=args.seed)
    out_dir = Path(args.out) if args.out else _workspace() / "reports"
    try:
        report = run_workflow(world, plan, out_dir=out_dir)
    except EmptyDenominator:
        print("no eligible files: the classifier detected none of the originals "
              "in a validation or test split", file=sys.stderr)
        return 1
    print(render_report(report), end="")
    print(f"written: {out_dir / 'workflow.json'}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amg",
        description="Adversarial rewriting lab for a synthetic executable format.",
    )
    parser.add_argument("--version", action="version", version=f"amg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corpus", help="generate a synthetic corpus")
    p.add_argument("--out", help="output directory (default: workspace/corpus)")
    p.add_argument("--malicious", type=int, default=CorpusSpec.malicious)
    p.add_argument("--benign", type=int, default=CorpusSpec.benign)
    p.add_argument("--seed", type=int, default=CorpusSpec.seed)
    p.set_defaults(func=cmd_corpus)

    det = sub.add_parser("detector", help="train or apply a classifier")
    det_sub = det.add_subparsers(dest="det_command", required=True)

    p = det_sub.add_parser("train", help="fit a classifier on the corpus train split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--kind", required=True, type=_kind, help="structural|bigram (aliases: a|b)")
    p.add_argument("--out", help="model path (default: workspace/detectors/<kind>.det)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_detector_train)

    p = det_sub.add_parser("classify", help="classify files with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_detector_classify)

    p = sub.add_parser("mutate", help="apply one rewrite action to a file")
    p.add_argument("--action", required=True, help="action name or id (0..9)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--corpus", required=True, help="corpus supplying benign content")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("validate", help="run the validity protocol over the corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--action", default="all", help="action name, id, or 'all'")
    p.add_argument("--limit", type=int, default=0, help="cap the number of files")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("train", help="train a rewriting agent")
    p.add_argument("--corpus", required=True)
    p.add_argument("--detector", required=True, help="saved classifier model")
    p.add_argument("--agent", default="ppo", choices=sorted(AGENT_KINDS))
    p.add_argument("--episodes", type=int, default=1000)
    p.add_argument("--max-steps", type=int, default=10)
    p.add_argument("--alpha", type=float, default=AgentHyper.alpha)
    p.add_argument("--gamma", type=float, default=AgentHyper.gamma)
    p.add_argument("--out", help="checkpoint path (default: workspace/agents/<kind>.ckpt)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="measure evasion rate on a corpus split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--detector", required=True)
    p.add_argument("--agent", required=True, help="agent checkpoint")
    p.add_argument("--split", default="test", choices=_SPLITS)
    p.add_argument("--max-steps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("transfer", help="replay rewrites against a second classifier")
    p.add_argument("--corpus", required=True)
    p.add_argument("--detector-a", required=True, help="classifier the agent attacks")
    p.add_argument("--detector-b", required=True, help="unseen classifier")
    p.add_argument("--agent", required=True)
    p.add_argument("--split", default="test", choices=_SPLITS)
    p.add_argument("--max-steps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("report", help="run the staged experiment workflow")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", help="report directory (default: workspace/reports)")
    p.add_argument("--plan", default="quick", choices=("micro", "quick", "full"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, PeError, CorpusError, DegenerateCorpus, DetectorFormatError,
            CheckpointError, OSError) as exc:  # OSError: a missing file, a directory, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
