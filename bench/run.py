"""amg benchmark launcher.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Prints one line per metric with
its unit and sample count, a run record, and as the last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from a traced run.
"""

from __future__ import annotations

import os

# One process, one thread: cap numpy's BLAS pool before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": BLAS_THREADS,
        "commit": _commit(),
        "src_sha256": _src_sha256(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "amg" / "__init__.py").is_file():
        print(f"error: no amg sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT / "bench")]
    from amgbench.runner import run_workload
    from amgbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import amg

    if not Path(amg.__file__).resolve().is_relative_to(SRC):
        print(f"error: amg imported from {amg.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              out_dir=OUT_DIR)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    print(f"workload {result.workload}  seed {result.seed}  op = one {result.op}")
    for name, (value, unit) in result.metrics.items():
        note = result.notes.get(name, "")
        print(f"  {name:<48s} {value:>14.6g} {unit:<9s} {note}")
    failed = len(result.failures)
    print(f"  error_rate {failed / result.attempted:.6g} ({failed} failed / {result.attempted} attempted)")
    for failure in result.failures[:20]:
        print(f"  FAILED: {failure}")
    print(f"  digest {result.digest} (reference: {result.reference})")
    print("record " + json.dumps(run_record(args), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
