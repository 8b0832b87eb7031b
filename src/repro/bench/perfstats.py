"""Kernel/estimator/split micro-benchmarks with a tracked JSON trajectory.

Every experiment in this repository funnels through three hot paths:

* the :class:`~repro.simtime.events.EventQueue` heap (one entry per
  scheduled callback),
* :class:`~repro.core.estimator.SampleTable` lookups (the strategy's
  innermost call — 40–60 of them per split decision), and
* the split solvers driven by
  :meth:`~repro.core.prediction.CompletionPredictor.plan`.

This module times all three plus the wall-clock of a representative
figure-benchmark slice, a large-N event storm (a quarter-million
pending events drained through the heap) and the vectorized
candidate-pricing path.  Two *simulated-time* metrics ride on top: the
ring-vs-naive all-to-all speedup on an 8-rank switched fabric and the
RailS-balancer-vs-uniform-striping speedup on a skewed traffic matrix
(module :mod:`repro.bench.experiments.collectives`).  The guard
compares against ``BENCH_PR8.json`` at the repository root, the latest
file in the trajectory that started with ``BENCH_PR1.json``;
:func:`load_trajectory` walks every committed ``BENCH_PR*.json`` so the
CLI can show the whole history.  ``python -m repro.bench.cli perf
--smoke`` (or ``make bench-smoke``) re-measures quickly and fails when
any guarded metric regresses more than 30% against the committed
baseline (5% for the simulated collective speedups — those are
deterministic, so any drift is a code change, not noise).

All wall-clock rates are best-of-``repeats`` to shave scheduler noise;
the absolute rates are machine-dependent, only the committed
before/after ratios and the regression guard are meaningful across
machines.  The ``*_speedup`` metrics are simulated time and reproduce
exactly everywhere.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: the committed perf trajectory for this PR, at the repository root
BASELINE_FILENAME = "BENCH_PR8.json"

#: metrics guarded by the smoke check, and the tolerated fractional drop
#: (the simulated collective speedups are deterministic — tight bound)
GUARDED_METRICS = {
    "events_per_s": 0.30,
    "events_large_n_per_s": 0.30,
    "pricing_batch_per_s": 0.30,
    "splits_cached_per_s": 0.30,
    "alltoall_ring_speedup_8r": 0.05,
    "alltoall_rails_skew_speedup_8r": 0.05,
}


def repo_root() -> Path:
    """Best-effort repository root (where ``BENCH_PR1.json`` lives)."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").exists():
            return parent
    return Path.cwd()


def _best_seconds(fn: Callable[[], object], repeats: int) -> float:
    import gc

    best = float("inf")
    for _ in range(max(1, repeats)):
        # Collect before timing so one run's garbage (a drained event
        # storm leaves plenty) cannot bill a GC pause to the next run or
        # to the next metric measured in the same process.
        gc.collect()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# --------------------------------------------------------------------- #
# individual micro-benchmarks
# --------------------------------------------------------------------- #


def bench_event_throughput(
    n_events: int = 100_000,
    cancel_every: int = 7,
    repeats: int = 3,
) -> float:
    """Events/sec through a full schedule→(some cancels)→drain cycle.

    A seventh of the events are cancelled after scheduling, so the lazy
    cancel drain is part of the measured path — exactly as in engine
    runs, where NIC-idle watchdogs are frequently cancelled.
    """
    from repro.simtime import Simulator

    def nop() -> None:
        pass

    def run_once() -> None:
        sim = Simulator()
        cancels = []
        for i in range(n_events):
            ev = sim.schedule(float(i % 97) + i * 1e-3, nop)
            if cancel_every and i % cancel_every == 0:
                cancels.append(ev)
        for ev in cancels:
            sim.cancel(ev)
        sim.run()

    return n_events / _best_seconds(run_once, repeats)


def bench_estimator_throughput(n_calls: int = 100_000, repeats: int = 3) -> float:
    """Estimates/sec through ``SampleTable.__call__`` on varied sizes.

    Sizes cycle through a fixed pool (in-range, out-of-range, odd
    offsets) so per-call memoization cannot short-circuit the lookup —
    this measures the table's scalar path itself.
    """
    from repro.bench.runners import default_profiles

    store = default_profiles()
    est = store["myri10g"]
    eager, dma = est.eager, est.dma
    pool: List[float] = []
    for k in range(4, 24):
        pool.extend((float(2**k), float(3 * 2**k + 1), float(2**k + 13)))
    n_pool = len(pool)

    def run_once() -> None:
        for i in range(n_calls // 2):
            s = pool[i % n_pool]
            eager(s)
            dma(s)

    return n_calls / _best_seconds(run_once, repeats)


def bench_event_storm(n_events: int = 1_000_000, repeats: int = 3) -> float:
    """Events/sec on a large-N storm: deep heap, O(log n) sifts.

    Everything is scheduled up front and then drained — retry storms
    and open-loop workload injections look exactly like this.
    """
    from repro.simtime import Simulator

    def nop() -> None:
        pass

    def run_once() -> None:
        sim = Simulator()
        for i in range(n_events):
            sim.schedule(float(i % 997) + i * 1e-4, nop)
        sim.run()

    return n_events / _best_seconds(run_once, repeats)


def bench_pricing_throughput(
    n_calls: int = 200,
    n_candidates: int = 64,
    batch: bool = True,
    repeats: int = 3,
) -> float:
    """Candidate split points priced per second, batch vs scalar.

    One call prices ``n_candidates`` boundary positions of a 2 MiB
    two-rail plan — the §II-B bisection's candidate grid, evaluated as
    a ``(candidates, rails)`` matrix in one vectorized pass
    (``batch=True``) or cell by cell through the scalar reference loop
    (``batch=False``).  Both paths are bit-equal by construction; this
    measures only their speed.
    """
    import numpy as np

    from repro.core.packets import TransferMode
    from repro.util.units import MiB

    predictor, nics = _paper_plan_inputs()
    rails = nics[:2]
    size = 2 * MiB
    boundaries = np.linspace(0.0, float(size), n_candidates)
    matrix = np.stack((boundaries, float(size) - boundaries), axis=1)

    def run_once() -> None:
        if batch:
            for _ in range(n_calls):
                predictor.price_candidates(rails, matrix, TransferMode.RENDEZVOUS)
        else:
            for _ in range(n_calls):
                predictor.price_candidates_scalar(
                    rails, matrix, TransferMode.RENDEZVOUS
                )

    return n_calls * n_candidates / _best_seconds(run_once, repeats)


def _paper_plan_inputs():
    """A quiescent paper testbed: (predictor, sender's NICs)."""
    from repro.bench.runners import build_paper_cluster
    from repro.core.strategies import HeteroSplitStrategy
    from repro.util.units import KiB

    cluster = build_paper_cluster(HeteroSplitStrategy(rdv_threshold=32 * KiB))
    engine = cluster.engine("node0")
    assert engine.predictor is not None
    return engine.predictor, list(engine.machine.nics)


def bench_split_throughput(
    n_calls: int = 300, same_shape: bool = True, repeats: int = 3
) -> float:
    """Splits/sec through the full §II-B decision (subset + bisection).

    ``same_shape=True`` repeats one ``(size, mode, offsets, rails)``
    shape — the steady-state common case a split-decision cache serves.
    ``same_shape=False`` gives every call a distinct size and drops any
    plan cache before each timed pass, timing the raw solver.
    """
    from repro.core.packets import TransferMode
    from repro.util.units import MiB

    predictor, nics = _paper_plan_inputs()
    base = 2 * MiB
    # getattr: lets this harness also time predictor versions that
    # predate (or drop) the split-decision cache.
    invalidate = getattr(predictor, "invalidate_plan_cache", lambda: None)

    def run_once() -> None:
        if not same_shape:
            invalidate()
        for i in range(n_calls):
            size = base if same_shape else base + 64 * i
            predictor.plan(nics, size, TransferMode.RENDEZVOUS)

    return n_calls / _best_seconds(run_once, repeats)


def bench_alltoall_speedups() -> Dict[str, float]:
    """Simulated collective metrics: makespans + speedups at 8 ranks.

    Deterministic (simulated µs, no wall clock): the ring-vs-naive
    all-to-all ratio on a flat switched fabric and the RailS-vs-uniform
    ratio on the skewed MoE matrix, both small enough for ``--smoke``.
    """
    from repro.bench.experiments import collectives as C

    size = C.ALLTOALL_SIZES[8]
    naive = C.measure_alltoall(8, size, "naive")
    ring = C.measure_alltoall(8, size, "ring")
    skew = C.skewed_table()
    return {
        "alltoall_naive_8r_us": naive,
        "alltoall_ring_8r_us": ring,
        "alltoall_ring_speedup_8r": naive / ring,
        "alltoall_rails_skew_speedup_8r": skew["mean_speedup"],
    }


def bench_fig_slice(messages: int = 32, repeats: int = 2) -> float:
    """Wall-clock seconds of a Fig. 1/8-style slice: build the §IV
    testbed and stream ``messages`` mixed-size sends (64 KiB – 4 MiB)
    under hetero-split — estimator, splits and kernel all on the path."""
    from repro.bench.runners import build_paper_cluster, default_profiles
    from repro.bench.workloads import mixed_stream, run_stream
    from repro.core.strategies import HeteroSplitStrategy
    from repro.util.units import KiB, MiB

    profiles = default_profiles()  # warm the memoized sampling pass
    sizes = [(64 * KiB, 256 * KiB, 1 * MiB, 2 * MiB, 4 * MiB)[i % 5] for i in range(messages)]

    def run_once() -> None:
        cluster = build_paper_cluster(
            HeteroSplitStrategy(rdv_threshold=32 * KiB), profiles=profiles
        )
        run_stream(cluster, mixed_stream(sizes, interval=500.0))

    return _best_seconds(run_once, repeats)


# --------------------------------------------------------------------- #
# collection + trajectory file
# --------------------------------------------------------------------- #


def collect_perfstats(smoke: bool = False) -> Dict[str, float]:
    """Run every micro-benchmark; ``smoke`` shrinks sizes to run in seconds."""
    scale = 5 if smoke else 1
    stats = {
        "events_per_s": bench_event_throughput(n_events=100_000 // scale),
        "events_large_n_per_s": bench_event_storm(n_events=250_000 // scale),
        "estimates_per_s": bench_estimator_throughput(n_calls=100_000 // scale),
        "pricing_scalar_per_s": bench_pricing_throughput(
            n_calls=200 // scale, batch=False
        ),
        "pricing_batch_per_s": bench_pricing_throughput(
            n_calls=200 // scale, batch=True
        ),
        "splits_cold_per_s": bench_split_throughput(
            n_calls=300 // scale, same_shape=False
        ),
        "splits_cached_per_s": bench_split_throughput(
            n_calls=300 // scale, same_shape=True
        ),
        "fig_slice_wall_s": bench_fig_slice(),
    }
    stats.update(bench_alltoall_speedups())
    return stats


def load_baseline(path: Optional[Path] = None) -> Optional[Dict]:
    """The committed trajectory, or None when absent/unreadable."""
    path = path or (repo_root() / BASELINE_FILENAME)
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError, ValueError):
        return None


def load_trajectory(root: Optional[Path] = None) -> List[Dict]:
    """Every committed ``BENCH_PR*.json``, sorted by PR number.

    Not all of them are perf-metric payloads — PR 2–5 committed
    scenario-shaped artifacts (degraded-mode points, chaos soaks, the
    calibration recovery run).  Files with a ``current`` metrics section
    are the kernel-perf trajectory proper; the rest still ride along so
    ``perf --compare`` can name what a given file actually holds.
    """
    root = root or repo_root()
    out: List[Dict] = []
    for path in sorted(root.glob("BENCH_PR*.json")):
        m = re.match(r"BENCH_PR(\d+)\.json$", path.name)
        if not m:
            continue
        payload = load_baseline(path)
        if payload is None:
            continue
        payload.setdefault("pr", int(m.group(1)))
        payload["_file"] = path.name
        out.append(payload)
    out.sort(key=lambda p: p["pr"])
    return out


def compare_to_baseline(
    stats: Dict[str, float], baseline: Dict
) -> List[str]:
    """Regression messages for guarded metrics (empty = healthy).

    Compares against the baseline's ``current`` numbers — the state this
    repository actually committed, not the pre-optimization floor.
    """
    committed = baseline.get("current", {})
    problems: List[str] = []
    for metric, tolerance in GUARDED_METRICS.items():
        ref = committed.get(metric)
        got = stats.get(metric)
        if not ref or not got:
            continue
        if got < ref * (1.0 - tolerance):
            problems.append(
                f"{metric} regressed: {got:,.0f} vs committed {ref:,.0f} "
                f"(> {tolerance:.0%} drop)"
            )
    return problems


def render_stats(stats: Dict[str, float], baseline: Optional[Dict] = None) -> str:
    """Human-readable table, with the committed numbers alongside if known."""
    committed = (baseline or {}).get("current", {})
    lines = [f"{'metric':<22} {'measured':>14}" + ("  committed" if committed else "")]
    for metric, value in stats.items():
        row = f"{metric:<22} {value:>14,.1f}"
        if committed.get(metric):
            row += f"  {committed[metric]:>12,.1f}"
        lines.append(row)
    return "\n".join(lines)


def compare_stats(stats: Dict[str, float], reference: Dict) -> Dict:
    """Per-metric delta of fresh measurements vs a committed BENCH file.

    ``reference`` is any trajectory payload; its ``current`` section is
    the comparison column.  Returns ``{metric: {measured, reference,
    ratio}}`` for every metric present on both sides (``ratio`` > 1
    means faster now, except ``*_wall_s`` where the ratio is inverted so
    "bigger = better" still holds).
    """
    committed = reference.get("current", {})
    out: Dict[str, Dict[str, float]] = {}
    for metric, measured in stats.items():
        ref = committed.get(metric)
        if not ref:
            continue
        ratio = ref / measured if metric.endswith("_wall_s") else measured / ref
        out[metric] = {
            "measured": measured,
            "reference": ref,
            "ratio": ratio,
        }
    return out


def render_comparison(deltas: Dict, label: str) -> str:
    """ASCII delta table for :func:`compare_stats` output."""
    if not deltas:
        return f"{label} carries no comparable perf metrics"
    lines = [
        f"{'metric':<22} {'measured':>14} {label:>16} {'speedup':>9}",
    ]
    for metric, row in deltas.items():
        lines.append(
            f"{metric:<22} {row['measured']:>14,.1f} "
            f"{row['reference']:>16,.1f} {row['ratio']:>8.2f}x"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# BENCH_PR7 payload generation
# --------------------------------------------------------------------- #


def collect_pr7_payload(smoke: bool = False) -> Dict:
    """Measure the BENCH_PR7 payload: the collective-algorithm race.

    Two deterministic sections carry the headline numbers — the uniform
    all-to-all makespans at 8/32/128 ranks on a flat switched fabric and
    the RailS-vs-uniform-striping comparison on skewed MoE matrices over
    a fat tree (module :mod:`repro.bench.experiments.collectives`) — and
    a ``current`` section carries the usual wall-clock kernel metrics
    plus the guarded simulated speedups, so ``perf --smoke`` keeps one
    file to compare against.
    """
    from repro.bench.experiments import collectives as C

    return {
        "schema": 1,
        "pr": 7,
        "description": (
            "Collective algorithms over switched fabrics. "
            "'alltoall_flat_switch' races naive/ring/doubling/rails "
            "uniform all-to-all at 8/32/128 ranks on a flat contended "
            "switch (per-pair size scaled so every rank moves ~2 MiB); "
            "'skewed_alltoallv_fat_tree' races uniform striping vs the "
            "RailS-style balanced schedule on an 8-rank fat tree with "
            "two hot destinations at 8x base traffic, averaged over "
            "hot-rank placements.  Both sections are simulated time — "
            "deterministic, reproduced exactly by 'python -m "
            "repro.bench.cli collectives --json PATH'.  'current' holds "
            "this host's wall-clock kernel rates plus the guarded "
            "simulated speedups."
        ),
        "harness": "python -m repro.bench.cli collectives --json PATH",
        "guard": {
            m: f"perf --smoke fails on >{int(tol * 100)}% drop vs 'current'"
            for m, tol in GUARDED_METRICS.items()
        },
        "current": collect_perfstats(smoke=smoke),
        "alltoall_flat_switch": C.alltoall_table(),
        "skewed_alltoallv_fat_tree": C.skewed_table(),
    }
