"""Benchmark entry point: one workload (or all four), timed or traced.

    python3 perfbench/run.py --workload paper_p2p --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Prints one line per metric (name, value, unit, direction, clock), a
``detail`` JSON line with every metric, and as the last line the result
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` the per-layer ones.  Exits
non-zero, printing no result, when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("paper_p2p", "coll_alltoall", "fabric_chaos", "obs_alltoall")
#: the seed whose chaos windows start with the CI soak windows
DEFAULT_SEED = 0
#: where traced runs write their spans (git-ignored)
SPANS_DIR = ROOT / ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process, one after another, so each
    reports its own peak RSS; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} failed", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if p != here]
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.workload == "all":
        return run_all(args)

    from perfbench import harness, workloads

    if args.setup_probe:
        workloads.make(args.workload, args.seed).prepare()
        print("ready", flush=True)
        return 0
    workload = workloads.make(args.workload, args.seed)
    if args.trace:
        report = harness.run_traced(workload, args.seconds, SPANS_DIR)
    else:
        report = harness.run_timed(workload, args.seconds)
    print("\n".join(harness.render(report)))
    print("detail " + json.dumps(report.metrics, sort_keys=True))
    print(json.dumps(report.result(), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
