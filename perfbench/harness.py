"""Timed and traced runs of one workload, and the metrics they report.

Timed run (``--trace 0``): set up once, run the untimed reference and
warm-up ops, then repeat whole rounds of ops until ``--seconds`` have passed (at least
one round), with the :class:`SpeedProbe` sampling the host's speed.
``setup_s`` is measured separately, in fresh interpreter processes
(:func:`setup_probe_seconds`), because set-up includes the imports a warm
process has already paid for.

Traced run (``--trace 1``): one plain round first (the untraced reference
for the overhead ratio and the simulated metrics), then rounds with the
entry-point wrappers installed and cProfile on.
"""

from __future__ import annotations

import bisect
import cProfile
import gc
import heapq
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench import tracing
from perfbench.workloads import Outcome, Workload

RUN_PY = Path(__file__).resolve().parent / "run.py"
ROOT = RUN_PY.parent.parent

#: fresh processes timed per run for ``setup_s`` (the median is reported)
SETUP_PROBES = 5
#: the smallest op count for which ``op_p90_ms`` is reported
P90_MIN_OPS = 100
#: steps of the calibration kernel (about 15 ms on a 2-CPU x86 VM)
KERNEL_STEPS = 12000
#: kernel seconds that define the reference host speed
REFERENCE_KERNEL_S = 0.015
#: host seconds between two samples of the speed probe
CALIBRATE_EVERY_S = 0.25
#: host seconds of probe samples taken into account on each side of an op
PROBE_WINDOW_S = 1.0

#: (name, unit, better) of the end-to-end metrics gated in BENCHMARK.json;
#: every workload reports each of them, all on the host clock
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("wall_ref_s", "s", "lower"),
    ("op_p50_ref_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better, clock) of the other end-to-end metrics: printed
#: by the timed run where the workload has them.  Simulated ones repeat
#: exactly for a seed, so a change that moves them must say why.
DETAIL: Tuple[Tuple[str, str, str, str], ...] = (
    ("wall_s", "s", "lower", "host"),
    ("op_p50_ms", "ms", "lower", "host"),
    ("op_p90_ms", "ms", "lower", "host"),
    ("host_speed", "ratio", "higher", "host"),
    ("fail_ratio", "ratio", "lower", "count"),
    ("sim_makespan_us", "us", "lower", "simulated"),
    ("sim_goodput_mbps", "MB/s", "higher", "simulated"),
    ("sim_lat_p50_us", "us", "lower", "simulated"),
    ("sim_lat_p99_us", "us", "lower", "simulated"),
    ("paper_err_pct", "%", "lower", "model"),
)

#: (name, unit, better) of the per-layer counters, read per round
COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("simtime.events", "count", "lower"),
    ("simtime.processes", "count", "lower"),
    ("simtime.resource_requests", "count", "lower"),
    ("simtime.host_us_per_event", "us", "lower"),
    ("api.collectives.ops", "count", "lower"),
    ("api.collectives.hops", "count", "lower"),
    ("api.collectives.replans", "count", "lower"),
    ("core.engine.messages", "count", "lower"),
    ("core.engine.retries", "count", "lower"),
    ("core.engine.duplicates_suppressed", "count", "lower"),
    ("core.engine.degraded", "count", "lower"),
    ("core.prediction.plans", "count", "lower"),
    ("core.prediction.plan_cache_hits", "count", "higher"),
    ("core.prediction.plan_cache_hit_ratio", "ratio", "higher"),
    ("core.estimator.transfer_time_calls", "count", "lower"),
    ("networks.nic.transfers", "count", "lower"),
    ("networks.nic.bytes", "B", "lower"),
    ("networks.nic.busy_sim_us", "us", "lower"),
    ("networks.nic.aborted", "count", "lower"),
    ("networks.nic.dropped", "count", "lower"),
    ("networks.switch.packets", "count", "lower"),
    ("networks.switch.contended_packets", "count", "lower"),
    ("networks.switch.contended_ratio", "ratio", "lower"),
    ("networks.switch.dropped_packets", "count", "lower"),
    ("networks.switch.rerouted_packets", "count", "lower"),
    ("pioman.offloads", "count", "higher"),
    ("pioman.interrupts", "count", "lower"),
    ("threading.tasklets", "count", "lower"),
    ("threading.preemptions", "count", "lower"),
    ("core.invariants.checks", "count", "lower"),
    ("core.invariants.violations", "count", "lower"),
    ("core.calibration.observations", "count", "lower"),
    ("faults.fired", "count", "lower"),
    ("faults.scenarios", "count", "lower"),
    ("obs.trace_events", "count", "lower"),
    ("obs.trace_bytes", "B", "lower"),
    ("obs.export_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: (name, unit, better) of every per-layer metric of the traced run
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    (f"{layer}.self_s", "s", "lower") for layer in tracing.LAYERS
) + COUNTERS


@dataclass
class Round:
    """One pass over a workload's ops."""

    #: raw host seconds per op
    op_seconds: List[float]
    outcomes: List[Outcome]
    #: host seconds per op scaled to the reference host speed (empty when
    #: the round ran without a speed probe)
    op_ref_seconds: List[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.op_seconds)

    @property
    def wall_ref_s(self) -> float:
        return sum(self.op_ref_seconds)


@dataclass
class Report:
    """Everything one run prints."""

    workload: str
    seed: int
    trace: bool
    metrics: Dict[str, Dict[str, Any]]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def result(self) -> Dict[str, Any]:
        """The result object, printed as the last line of stdout."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in self.metrics.items()
                if m.get("gated")
            },
        }


def _run_op(fn) -> Outcome:
    """Run one op; an exception fails the op, never the run."""
    try:
        return fn()
    except Exception as exc:  # the loop must keep going: record and count
        import traceback

        traceback.print_exc(file=sys.stderr)
        return Outcome(units=1, failed_units=1, problems=[f"op raised {exc!r}"])


def _kernel() -> float:
    """Fixed pure-Python work shaped like an event loop: heap pushes and
    pops over a few thousand pending entries, dict updates over tens of
    thousands of keys, float arithmetic.  It never touches the program,
    so a change to the program cannot change its cost."""
    rng = random.Random(0)
    queue: List[Tuple[float, int]] = []
    tally: Dict[int, float] = {}
    total = 0.0
    for i in range(KERNEL_STEPS):
        heapq.heappush(queue, (rng.random(), i))
        if len(queue) > 4096:
            t, j = heapq.heappop(queue)
            tally[j % 50021] = tally.get(j % 50021, 0.0) + t
            total += t
    return total


class SpeedProbe:
    """Samples the host's speed while a run measures.

    While armed (as a context manager), a ``SIGALRM`` timer runs the
    calibration kernel every :data:`CALIBRATE_EVERY_S` seconds, in the
    main thread between two bytecodes of whatever op is running.  Each
    sample is ``(end time, kernel seconds)``.  ``spent_s`` counts the host
    seconds the probe itself took, which the harness subtracts from op
    times; :meth:`factor` scales an op to the reference host speed.  The kernel shares no state with the program, so the
    simulated results cannot change.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self.spent_s = 0.0
        self._previous: Any = None

    def sample(self, *_signal_args) -> None:
        # the kernel frees everything it allocates; with the collector
        # off, a collection of the program's heap never lands in a sample
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append((t1, t1 - t0))
        self.spent_s += t1 - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """``REFERENCE_KERNEL_S`` over the median kernel time of the samples
        taken from :data:`PROBE_WINDOW_S` before ``t0`` to as long after
        ``t1``: wide enough to smooth one sample's noise, narrow enough
        to follow the host's drift."""
        times = [t for t, _ in self.samples]
        lo = bisect.bisect_left(times, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, t1 + PROBE_WINDOW_S)
        window = [k for _, k in self.samples[lo:hi]] or [k for _, k in self.samples]
        return REFERENCE_KERNEL_S / statistics.median(window)


def run_rounds(
    workload: Workload,
    seconds: float,
    tracer: Optional[tracing.Tracer] = None,
    probe: Optional[SpeedProbe] = None,
) -> List[Round]:
    """Repeat whole rounds until ``seconds`` have passed (at least one).

    With an armed ``probe``, op times exclude the probe's own samples,
    and each op's time is also reported scaled to the reference host
    speed (:meth:`SpeedProbe.factor`) once the rounds end.
    """
    clock = time.perf_counter
    rounds: List[Round] = []
    spans: List[Tuple[float, float]] = []
    deadline = clock() + seconds
    op_id = 0
    while True:
        rnd = Round([], [])
        for _, fn in workload.ops():
            # the previous op's garbage is collected here, not inside the
            # next op's timed region
            gc.collect()
            if tracer is not None:
                tracer.begin_op(op_id)
            spent = probe.spent_s if probe else 0.0
            t0 = clock()
            outcome = _run_op(fn)
            t1 = clock()
            rnd.op_seconds.append(t1 - t0 - ((probe.spent_s - spent) if probe else 0.0))
            spans.append((t0, t1))
            if tracer is not None:
                tracer.end_op(outcome)
            rnd.outcomes.append(outcome)
            op_id += 1
        rounds.append(rnd)
        if clock() >= deadline:
            break
    if probe is not None:
        probe.sample()
        at = iter(spans)
        for rnd in rounds:
            rnd.op_ref_seconds = [t * probe.factor(*next(at)) for t in rnd.op_seconds]
    return rounds


def setup_probe_seconds(name: str, seed: int, probes: int = SETUP_PROBES) -> List[float]:
    """Host seconds from starting a fresh interpreter to its first op
    being ready (imports, network-driver sampling, first world built),
    per probe."""
    cmd = [
        sys.executable, str(RUN_PY), "--setup-probe",
        "--workload", name, "--seed", str(seed),
    ]
    times: List[float] = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {err.strip()[-500:]}")
        times.append(elapsed)
    return times


def _round_problems(workload: Workload, rounds: List[Round]) -> Tuple[Dict[str, float], List[str]]:
    """Simulated metrics of the first round; every later round must match
    them bit for bit, and every failed op check is a problem."""
    first = workload.sim_metrics(rounds[0].outcomes)
    problems = []
    for i, rnd in enumerate(rounds):
        for outcome in rnd.outcomes:
            problems.extend(outcome.problems)
        if i and workload.sim_metrics(rnd.outcomes) != first:
            problems.append(f"round {i}: simulated metrics differ from round 0")
    # one copy of each problem is enough to read
    return first, list(dict.fromkeys(problems))


def _counts(rounds: List[Round]) -> Tuple[int, int, int, int]:
    """(ops, failed ops, units, failed units) over all rounds."""
    outcomes = [o for r in rounds for o in r.outcomes]
    return (
        len(outcomes),
        sum(1 for o in outcomes if o.problems),
        sum(o.units for o in outcomes),
        sum(o.failed_units for o in outcomes),
    )


def _op_median(rounds: List[Round], attr: str) -> float:
    """Median over the ops of a round of each op's median time across
    rounds: every op counts once however many rounds ran, so the median
    does not jump between op kinds of different cost."""
    per_op = zip(*(getattr(r, attr) for r in rounds))
    return statistics.median(statistics.median(times) for times in per_op)


def _metric(value: float, unit: str, better: str, clock: str, gated: bool = False) -> Dict[str, Any]:
    return {"value": value, "unit": unit, "better": better, "clock": clock, "gated": gated}


def run_timed(workload: Workload, seconds: float, probes: int = SETUP_PROBES) -> Report:
    """The untraced run: every end-to-end metric and every output check.

    ``probes=0`` skips the fresh-process set-up measurement (``setup_s``
    is then not reported).
    """
    workload.setup()
    workload.references()
    workload.warm_up()
    with SpeedProbe() as probe:
        rounds = run_rounds(workload, seconds, probe=probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = setup_probe_seconds(workload.name, workload.seed, probes)
    sim, problems = _round_problems(workload, rounds)
    ops, failed_ops, units, failed_units = _counts(rounds)
    op_s = [t for r in rounds for t in r.op_seconds]
    kernel_s = [k for _, k in probe.samples]

    metrics = {}
    if setup:
        metrics["setup_s"] = _metric(statistics.median(setup), "s", "lower", "host", True)
    metrics.update({
        "wall_ref_s": _metric(statistics.median(r.wall_ref_s for r in rounds), "s", "lower", "host-ref", True),
        "op_p50_ref_ms": _metric(1e3 * _op_median(rounds, "op_ref_seconds"), "ms", "lower", "host-ref", True),
        "peak_rss_mb": _metric(peak_rss_mb, "MB", "lower", "host", True),
        "wall_s": _metric(statistics.median(r.wall_s for r in rounds), "s", "lower", "host"),
        "op_p50_ms": _metric(1e3 * _op_median(rounds, "op_seconds"), "ms", "lower", "host"),
    })
    if len(op_s) >= P90_MIN_OPS:
        p90 = statistics.quantiles(op_s, n=10, method="inclusive")[8]
        metrics["op_p90_ms"] = _metric(1e3 * p90, "ms", "lower", "host")
    metrics["host_speed"] = _metric(
        REFERENCE_KERNEL_S / statistics.median(kernel_s), "ratio", "higher", "host"
    )
    metrics["fail_ratio"] = _metric(failed_units / units if units else 0.0, "ratio", "lower", "count")
    details = {d[0]: d for d in DETAIL}
    for key, value in sim.items():
        _, unit, better, clock = details[key]
        metrics[key] = _metric(value, unit, better, clock)
    notes = [
        f"{len(rounds)} round(s), {ops} ops ({len(op_s)} timed samples), "
        f"{units} posted units, {failed_units} failed",
        f"setup_s median of {len(setup)} fresh processes: "
        + ", ".join(f"{t:.3f}" for t in setup),
    ]
    return Report(workload.name, workload.seed, False, metrics, ops, failed_ops, problems, notes)


def run_traced(workload: Workload, seconds: float, spans_dir: Optional[Path] = None) -> Report:
    """The traced run: per-layer self time and counters, per round."""
    workload.setup()
    workload.references()
    workload.warm_up()
    untraced = run_rounds(workload, 0.0)
    tracer = tracing.Tracer()
    profile = cProfile.Profile()
    tracer.install()
    try:
        profile.enable()
        try:
            traced = run_rounds(workload, seconds, tracer)
        finally:
            profile.disable()
    finally:
        tracer.uninstall()

    sim, problems = _round_problems(workload, untraced + traced)
    ops, failed_ops, _, _ = _counts(traced)
    n = len(traced)
    per_round: Dict[str, float] = {}
    for counters in tracer.op_counters:
        for key, value in counters.items():
            per_round[key] = per_round.get(key, 0) + value
    per_round = {k: v / n for k, v in per_round.items()}
    hits = per_round.get("core.prediction.plan_cache_hits", 0)
    misses = per_round.pop("core.prediction.plan_cache_misses", 0)
    packets = per_round.get("networks.switch.packets", 0)
    events = per_round.get("simtime.events", 0)
    untraced_wall = untraced[0].wall_s
    per_round.update(
        {
            "core.prediction.plan_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "networks.switch.contended_ratio": (
                per_round.get("networks.switch.contended_packets", 0) / packets if packets else 0.0
            ),
            "simtime.host_us_per_event": 1e6 * untraced_wall / events if events else 0.0,
            "obs.export_s": tracer.export_seconds() / n,
            "trace.spans": len(tracer.span_start) / n,
            "trace.overhead_ratio": statistics.median(r.wall_s for r in traced) / untraced_wall,
        }
    )
    for layer, self_s in tracing.layer_self_times(profile).items():
        per_round[f"{layer}.self_s"] = self_s / n
    metrics = {
        key: _metric(per_round.get(key, 0.0), unit, better, "host" if unit == "s" else "count", True)
        for key, unit, better in PER_LAYER
    }
    notes = [
        f"untraced round {untraced_wall:.3f} s; {n} traced round(s), {ops} ops; "
        f"simulated metrics identical traced vs untraced: "
        f"{not any('differ' in p for p in problems)}",
    ]
    if spans_dir is not None:
        path = tracer.write(spans_dir / f"spans-{workload.name}-seed{workload.seed}.npz")
        notes.append(f"{len(tracer.span_start)} spans written to {path}")
    return Report(workload.name, workload.seed, True, metrics, ops, failed_ops, problems, notes)


def render(report: Report) -> List[str]:
    """Human-readable lines: one metric per line with unit and direction."""
    mode = "traced" if report.trace else "timed"
    lines = [f"perfbench {report.workload} seed={report.seed} ({mode} run)"]
    for name, m in report.metrics.items():
        value = m["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(
            f"  {name:<40} {shown:>14} {m['unit']:<6} {m['better']:<6} [{m['clock']}]"
        )
    lines += [f"  note: {n}" for n in report.notes]
    lines += [f"  PROBLEM: {p}" for p in report.problems[:20]]
    if len(report.problems) > 20:
        lines.append(f"  ... {len(report.problems) - 20} more problem(s)")
    return lines
