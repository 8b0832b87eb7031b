"""Interleaved A/B of the repository benchmark: a base revision vs the working tree.

    python tools/ab.py --base HEAD~1 --workload coll_alltoall --pairs 10
    make ab BASE=HEAD~1 WORKLOAD=coll_alltoall PAIRS=10

``--base`` is a git revision, checked out with ``git worktree`` into a
temporary directory (under ``/tmp`` unless ``TMPDIR`` names another)
and removed afterwards.  Each pair runs ``perfbench/run.py --trace 0``
for the benchmark's ``run_seconds`` once in each tree, in fresh processes,
and swaps which side goes first from one pair to the next, so a drift
of the host's speed during the run hits both sides alike.

The report gives, per end-to-end metric of ``BENCHMARK.json``, each
side's median and quartiles, the pairs the working tree won, and every
run's ``attempted``/``failed`` counts and ``fail_ratio``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> Dict:
    """One benchmark process in ``tree``; its result line plus fail_ratio."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{tree}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    result["fail_ratio"] = detail.get("fail_ratio", {}).get("value")
    return result


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:.4g} [{q1:.4g}-{q3:.4g}]"


def report(metrics: List[Dict], runs: Dict[str, List[Dict]]) -> None:
    pairs = len(runs["base"])
    print(f"{'metric':<16}{'base median [q1-q3]':>30}{'head median [q1-q3]':>30}  head wins")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        print(f"{name:<16}{quartiles(base):>30}{quartiles(head):>30}  {wins}/{pairs}")
    for side in ("base", "head"):
        cells = ", ".join(
            f"{r['attempted']}/{r['failed']}/{r['fail_ratio']:.6g}" for r in runs[side]
        )
        print(f"{side} attempted/failed/fail_ratio per run: {cells}")


def main(argv: List[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]

    worktree = Path(tempfile.mkdtemp(prefix="ab-base-"))
    subprocess.run(
        ["git", "worktree", "add", "--detach", str(worktree), args.base],
        cwd=ROOT, check=True, capture_output=True,
    )
    try:
        runs: Dict[str, List[Dict]] = {"base": [], "head": []}
        trees = {"base": worktree, "head": ROOT}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                r = run_once(trees[side], args.workload, args.seed, seconds)
                runs[side].append(r)
                wall = r["metrics"]["wall_ref_s"]["value"]
                print(f"pair {i + 1}/{args.pairs} {side}: wall_ref_s {wall:.4g}", flush=True)
        print(f"\n{args.workload} seed {args.seed}, {args.pairs} interleaved pairs, "
              f"base {args.base}")
        report(metrics, runs)
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(worktree)],
            cwd=ROOT, check=False, capture_output=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
