"""Traced mode: spans around public entry points, per-layer counters and
cProfile self time grouped by package.

Nothing here is imported by the timed (untraced) run's hot path: the
wrappers are installed onto the program's classes by :meth:`Tracer.install`
only in traced mode and removed again by :meth:`Tracer.uninstall`, so an
untraced run calls the program's own functions directly.

A span is ``(name, start, end, parent, op)``: host-clock start/end from
``time.perf_counter``, the index of the enclosing span (-1 at top level)
and the benchmark op it ran in.  Spans are kept in typed arrays in memory
and written once, by :meth:`Tracer.write`, when the run ends.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import pstats
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: ``(module, class, method)`` entry points recorded as spans
SPAN_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.api.cluster", "ClusterBuilder", "build"),
    ("repro.api.cluster", "Cluster", "run"),
    ("repro.api.cluster", "Cluster", "chrome_trace"),
    ("repro.api.mpi", "MpiWorld", "run"),
    ("repro.simtime.simulator", "Simulator", "spawn"),
    ("repro.simtime.resources", "Resource", "request"),
    ("repro.core.engine", "NmadEngine", "isend"),
    ("repro.core.prediction", "CompletionPredictor", "plan"),
    ("repro.core.estimator", "NicEstimator", "transfer_time"),
    ("repro.networks.nic", "Nic", "submit"),
)

#: the ``Communicator`` collectives: generator functions, recorded as
#: spans from first resume to return (they interleave across ranks, so
#: they never become the parent of another span)
COLLECTIVES: Tuple[str, ...] = (
    "barrier", "bcast", "gather", "alltoall",
    "scatter", "allgather", "reduce", "alltoallv",
)

#: ``(module, class, method)`` entry points only counted, not timed
COUNT_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.invariants", "InvariantMonitor", "on_replan"),
)

#: ``src/repro`` path prefix -> layer, first match wins.  Files not
#: listed (``repro.bench``, ``repro.util``, the package root) and code
#: outside the program (stdlib, numpy, builtins) are charged to the layer
#: of the program code that called them; see :func:`layer_self_times`.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("simtime/", "simtime"),
    ("api/collectives.py", "api.collectives"),
    ("api/mpi.py", "api.collectives"),
    ("api/", "api.cluster"),
    ("core/engine.py", "core.engine"),
    ("core/packets.py", "core.engine"),
    ("core/rendezvous.py", "core.engine"),
    ("core/scheduler.py", "core.engine"),
    ("core/stats.py", "core.engine"),
    ("core/__init__.py", "core.engine"),
    ("core/prediction.py", "core.prediction"),
    ("core/split.py", "core.prediction"),
    ("core/strategies/", "core.prediction"),
    ("core/estimator.py", "core.estimator"),
    ("core/sampling.py", "core.estimator"),
    ("core/invariants.py", "core.invariants"),
    ("core/calibration/", "core.calibration"),
    ("networks/switch.py", "networks.switch"),
    ("networks/", "networks.nic"),
    ("pioman/", "pioman"),
    ("threading/", "threading"),
    ("hardware/", "hardware"),
    ("faults/", "faults"),
    ("obs/", "obs"),
    ("trace/", "obs"),
    ("bench/", "bench"),
)

#: every layer that reports ``<layer>.self_s`` (``bench`` is the harness:
#: the benchmark's own files, ``repro.bench`` and what nothing else claims)
LAYERS: Tuple[str, ...] = (
    "simtime", "api.collectives", "api.cluster", "core.engine",
    "core.prediction", "core.estimator", "networks.nic", "networks.switch",
    "pioman", "threading", "hardware", "core.invariants",
    "core.calibration", "faults", "obs", "bench",
)

_BENCH_DIR = str(Path(__file__).resolve().parent)


def layer_of_file(filename: str) -> Optional[str]:
    """The layer owning a source file, or None for code outside a layer."""
    path = filename.replace("\\", "/")
    if path.startswith(_BENCH_DIR):
        return "bench"
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return None
    rel = path[at + len(marker):]
    for prefix, layer in LAYER_PREFIXES:
        if rel.startswith(prefix):
            return layer
    return None


def layer_self_times(profile: cProfile.Profile) -> Dict[str, float]:
    """cProfile self time (s) summed per layer.

    A function in a layer's files is charged to that layer.  Any other
    function (a builtin, stdlib, numpy, ``repro.util``) is charged along
    its call edges: each caller edge's own time goes to the caller's
    layer, resolved up the heaviest-caller chain when the caller is itself
    outside every layer.  What resolves nowhere is charged to ``bench``,
    so the layer times sum to the profile's total.
    """
    stats = pstats.Stats(profile).stats
    memo: Dict[Any, str] = {}

    def resolve(func, seen=()) -> str:
        if func in memo:
            return memo[func]
        own = layer_of_file(func[0])
        if own is None:
            callers = stats.get(func, (0, 0, 0, 0, {}))[4]
            heavy = sorted(
                (c for c in callers if c not in seen),
                key=lambda c: (-callers[c][3], c),
            )
            own = resolve(heavy[0], seen + (func,)) if heavy else "bench"
        memo[func] = own
        return own

    out = {layer: 0.0 for layer in LAYERS}
    for func, (_, _, tt, _, callers) in stats.items():
        own = layer_of_file(func[0])
        if own is not None or not callers:
            out[own or "bench"] += tt
            continue
        charged = 0.0
        for caller, edge in callers.items():
            out[resolve(caller, (func,))] += edge[2]
            charged += edge[2]
        # recursion makes edge times overlap; keep the function's total
        if charged != tt:
            out[resolve(func)] += tt - charged
    return out


class Tracer:
    """Spans, call counts and per-op counters for one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._stack: List[int] = []
        self.op_id = -1
        self.calls: Counter = Counter()
        #: clusters built during the current op (read, then dropped)
        self._clusters: List[Any] = []
        #: ids of clusters a collective ran on during the current op
        self._collective_clusters: Dict[int, Any] = {}
        #: per-op counter dicts, in op order
        self.op_counters: List[Dict[str, float]] = []
        self._calls_at_begin: Counter = Counter()
        self._installed: List[Tuple[type, str, Any]] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point on its class."""
        for module, cls_name, attr in SPAN_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, attr, self._span_wrapper(f"{cls_name}.{attr}", cls.__dict__[attr]))
        comm = importlib.import_module("repro.api.mpi").Communicator
        for attr in COLLECTIVES:
            self._patch(comm, attr, self._collective_wrapper(f"Communicator.{attr}", comm.__dict__[attr]))
        for module, cls_name, attr in COUNT_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, attr, self._count_wrapper(f"{cls_name}.{attr}", cls.__dict__[attr]))

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._installed:
            cls, attr, original = self._installed.pop()
            setattr(cls, attr, original)

    def _patch(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._installed.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int, parent: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self.span_start.append(time.perf_counter())
        return idx

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        stack = self._stack
        capture = name == "ClusterBuilder.build"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            idx = self._open(nid, stack[-1] if stack else -1)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.span_end[idx] = time.perf_counter()
            if capture:
                self._clusters.append(result)
            return result

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def _collective_wrapper(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        stack = self._stack

        def spanned(inner):
            idx = self._open(nid, stack[-1] if stack else -1)
            try:
                return (yield from inner)
            finally:
                self.span_end[idx] = time.perf_counter()

        @functools.wraps(fn)
        def wrapper(comm, *args, **kwargs):
            self.calls[name] += 1
            cluster = comm.world.cluster
            self._collective_clusters[id(cluster)] = cluster
            return spanned(fn(comm, *args, **kwargs))

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    # -- per-op counters -----------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._clusters = []
        self._collective_clusters = {}
        self._calls_at_begin = Counter(self.calls)

    def end_op(self, outcome) -> None:
        """Read the counters of every cluster the op built, then drop them."""
        calls = self.calls - self._calls_at_begin
        counters = cluster_counters(self._clusters, self._collective_clusters)
        counters.update(
            {
                "simtime.processes": calls["Simulator.spawn"],
                "simtime.resource_requests": calls["Resource.request"],
                "api.collectives.ops": sum(
                    calls[f"Communicator.{c}"] for c in COLLECTIVES
                ),
                "api.collectives.replans": calls["InvariantMonitor.on_replan"],
                "core.prediction.plans": calls["CompletionPredictor.plan"],
                "core.estimator.transfer_time_calls": calls["NicEstimator.transfer_time"],
                "core.invariants.violations": outcome.violations,
                "obs.trace_bytes": outcome.trace_bytes,
            }
        )
        self.op_counters.append(counters)
        self._clusters = []
        self._collective_clusters = {}

    def export_seconds(self) -> float:
        """Host seconds spent inside ``Cluster.chrome_trace`` spans."""
        nid = self._name_ids.get("Cluster.chrome_trace")
        if nid is None:
            return 0.0
        return sum(
            self.span_end[i] - self.span_start[i]
            for i, n in enumerate(self.span_name)
            if n == nid
        )

    def write(self, path: Path) -> Path:
        """Write every span once, as a numpy ``.npz`` of parallel columns."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
        )
        return path


def _unique(objs: Iterable[Any]) -> List[Any]:
    seen: Dict[int, Any] = {}
    for obj in objs:
        if obj is not None:
            seen.setdefault(id(obj), obj)
    return list(seen.values())


def cluster_counters(
    clusters: List[Any], collective_clusters: Dict[int, Any]
) -> Dict[str, float]:
    """Per-layer work counters read from the clusters' public attributes."""
    from repro.networks.switch import Switch

    c: Counter = Counter()
    for cluster in _unique(clusters + list(collective_clusters.values())):
        engines = list(cluster.engines.values())
        nics = [nic for m in cluster.machines.values() for nic in m.nics]
        c["simtime.events"] += cluster.sim.events_processed
        sent = sum(e.messages_sent for e in engines)
        c["core.engine.messages"] += sent
        if id(cluster) in collective_clusters:
            c["api.collectives.hops"] += sent
        c["core.engine.retries"] += sum(e.retries_issued for e in engines)
        c["core.engine.duplicates_suppressed"] += sum(
            e.duplicates_suppressed for e in engines
        )
        c["core.engine.degraded"] += sum(e.messages_degraded for e in engines)
        for pred in _unique(e.predictor for e in engines):
            c["core.prediction.plan_cache_hits"] += pred.plan_cache_hits
            c["core.prediction.plan_cache_misses"] += pred.plan_cache_misses
        for nic in nics:
            c["networks.nic.transfers"] += nic.transfers_sent
            c["networks.nic.bytes"] += nic.bytes_sent
            c["networks.nic.busy_sim_us"] += sum(w.end - w.start for w in nic.work_log)
            c["networks.nic.aborted"] += nic.transfers_aborted
            c["networks.nic.dropped"] += nic.transfers_dropped
        for sw in _unique(n.wire for n in nics if isinstance(n.wire, Switch)):
            c["networks.switch.packets"] += sw.packets_forwarded
            c["networks.switch.contended_packets"] += sw.contended_packets
            c["networks.switch.dropped_packets"] += sw.link_dropped_packets + getattr(
                sw, "spine_dropped_packets", 0
            )
            c["networks.switch.rerouted_packets"] += getattr(
                sw, "spine_rerouted_packets", 0
            )
        for pio in _unique(e.pioman for e in engines):
            c["pioman.offloads"] += pio.offloads
            c["pioman.interrupts"] += pio.interrupts
        for marcel in _unique(e.marcel for e in engines):
            c["threading.tasklets"] += marcel.tasklets_run
            c["threading.preemptions"] += marcel.preemptions
        if cluster.invariants is not None:
            c["core.invariants.checks"] += cluster.invariants.checks_performed
        if cluster.calibration is not None:
            c["core.calibration.observations"] += cluster.calibration.observations
        if cluster.fault_injector is not None:
            c["faults.fired"] += cluster.fault_injector.faults_fired
            c["faults.scenarios"] += 1
        if cluster.obs.on and cluster.obs.tracer is not None:
            c["obs.trace_events"] += len(cluster.obs.tracer.events)
    return dict(c)
