"""The four benchmark workloads.

Each workload turns ``--seed`` into its inputs once (:meth:`Workload.setup`)
and then exposes one *round*: a fixed list of ops.  An op is one fresh
cluster or world driven to completion, plus the output checks on it; it
returns an :class:`Outcome`.  The harness repeats whole rounds (a closed
loop in host time), so every round does the same simulated work and its
simulated metrics must repeat bit for bit.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

#: the paper's rail pair (Myri-10G + Quadrics)
RAILS = ("myri10g", "quadrics")

#: one op of a round: (name, zero-argument callable returning an Outcome)
Op = Tuple[str, Callable[[], "Outcome"]]


@dataclass
class Outcome:
    """What one op did and whether its outputs checked out."""

    #: posted units (messages or collectives) and how many of them failed
    units: int
    failed_units: int = 0
    #: failed output checks; the op counts as failed when non-empty
    problems: List[str] = field(default_factory=list)
    #: simulated results of the op (workload-specific keys)
    sim: Dict[str, Any] = field(default_factory=dict)
    #: invariant violations raised inside the op
    violations: int = 0
    #: bytes of the Chrome trace the op exported (obs_alltoall)
    trace_bytes: int = 0


class Workload:
    """Base class: seed-derived inputs, one round of ops, round metrics."""

    name = ""
    why = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Imports, network-driver sampling and seed-derived inputs."""

    def prepare(self) -> Any:
        """:meth:`setup` plus the first op's world, built but not run —
        the end of the span ``setup_s`` measures."""
        raise NotImplementedError

    def references(self) -> None:
        """Untimed reference runs the op checks compare against."""

    def warm_up(self) -> None:
        """Untimed runs that take each op kind's code path once, so the
        first timed round does not pay for first-call work (imports inside
        the program, memo tables shared across clusters) that later
        rounds skip."""

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def sim_metrics(self, outcomes: List[Outcome]) -> Dict[str, float]:
        """Simulated metrics of one round (identical in every round)."""
        return {
            "sim_makespan_us": sum(o.sim["makespan_us"] for o in outcomes)
        }


def _profiles():
    from repro.bench.runners import default_profiles

    return default_profiles(RAILS)


def _sample():
    """A freshly sampled profile store for the rail pair (not memoized)."""
    from repro.core.sampling import ProfileStore
    from repro.networks.drivers import make_driver

    return ProfileStore.sample_drivers([make_driver(r) for r in RAILS])


def _message_problems(where: str, engines) -> List[str]:
    """The healthy-fabric output check: every posted message completed and
    none degraded."""
    sent = sum(e.messages_sent for e in engines)
    done = sum(e.messages_completed for e in engines)
    degraded = sum(e.messages_degraded for e in engines)
    if done != sent or degraded:
        return [f"{where}: {sent} sent, {done} completed, {degraded} degraded"]
    return []


# ---------------------------------------------------------------------- #
# paper_p2p
# ---------------------------------------------------------------------- #


class PaperP2P(Workload):
    """§IV two-node testbed: FIG8 sweep, then open-loop stream episodes."""

    name = "paper_p2p"
    why = (
        "two-node paper testbed: FIG8 sweep plus seeded open-loop streams "
        "(4 B-4 MiB) at 0.5x and 1.2x the hetero plateau; engine, "
        "prediction, NIC, pioman"
    )

    STRATEGY = "multicore_split"
    EPISODES = 16
    MESSAGES = 128
    #: offered load per episode, as a multiple of the hetero plateau
    LOADS = (0.5, 1.2)
    SIZE_MIN = 4
    SIZE_MAX = 4 * 1024 * 1024
    #: the paper's hetero-split plateau (MB/s), the load reference
    PLATEAU_MBPS = 1987.0

    def setup(self) -> None:
        from repro.util.units import bytes_per_us_to_mbps

        self.profiles = _sample()
        self.rate = self.PLATEAU_MBPS / bytes_per_us_to_mbps(1.0)  # bytes/µs
        self.schedules = [self._schedule(k) for k in range(self.EPISODES)]

    def _schedule(self, k: int) -> Tuple[float, List[Tuple[float, int]]]:
        """Episode ``k``: (offered load, [(post time µs, size B)]).

        Sizes are stratified log-uniform: one size drawn from each of
        :attr:`MESSAGES` equal log-width strata of [SIZE_MIN, SIZE_MAX],
        then shuffled, so every seed offers the same size mix.  Gaps are
        exponential, scaled so that the episode offers exactly ``load``
        times the plateau over its posting window.
        """
        load = self.LOADS[k % len(self.LOADS)]
        rng = random.Random(f"perfbench:{self.name}:{self.seed}:{k}")
        lo, hi = math.log(self.SIZE_MIN), math.log(self.SIZE_MAX)
        n = self.MESSAGES
        sizes = [
            min(self.SIZE_MAX, int(math.exp(lo + (i + rng.random()) * (hi - lo) / n)))
            for i in range(n)
        ]
        rng.shuffle(sizes)
        gaps = [rng.expovariate(1.0) for _ in range(n)]
        scale = sum(sizes) / (load * self.rate) / sum(gaps)
        t = 0.0
        sends = []
        for gap, size in zip(gaps, sizes):
            t += gap * scale
            sends.append((t, size))
        return load, sends

    def _cluster(self):
        from repro.api.cluster import ClusterBuilder

        return (
            ClusterBuilder.paper_testbed(strategy=self.STRATEGY)
            .sampling(profiles=self.profiles)
            .build()
        )

    def prepare(self):
        self.setup()
        return self._cluster()

    def warm_up(self) -> None:
        self._fig8()
        for k in range(len(self.LOADS)):
            self._episode(k)

    def ops(self) -> List[Op]:
        # Fresh sampled profiles per round, as a new process would have:
        # the estimators' memo tables, shared by every cluster built on
        # them, then start empty each round instead of holding the sizes
        # of every earlier round, which real streams would not repeat.
        self.profiles = _sample()
        ops: List[Op] = [("fig8", self._fig8)]
        for k in range(self.EPISODES):
            ops.append((f"episode{k}", lambda k=k: self._episode(k)))
        return ops

    def _fig8(self) -> Outcome:
        from repro.bench.experiments import fig8

        result = fig8.run()
        series = {s.label: s.values for s in result.series}
        order = (fig8.HETERO, fig8.ISO, fig8.MYRI, fig8.QUAD)
        problems = []
        for i, size in enumerate(result.x_sizes):
            row = [series[label][i] for label in order]
            if not all(a > b for a, b in zip(row, row[1:])):
                problems.append(
                    f"fig8 {size}B: hetero>iso>myri>quadrics broken {row}"
                )
        err = max(
            abs(series[label][-1] - ref) / ref
            for label, ref in fig8.PAPER_PLATEAUS.items()
        )
        return Outcome(
            units=len(order) * len(result.x_sizes),
            failed_units=len(order) * len(problems),
            problems=problems,
            sim={"paper_err_pct": 100.0 * err},
        )

    def _episode(self, k: int) -> Outcome:
        from repro.core.packets import MessageStatus

        _, sends = self.schedules[k]
        cluster = self._cluster()
        sender, receiver = cluster.sessions("node0", "node1")
        messages = []
        handles = []
        for tag, (at, size) in enumerate(sends):
            handles.append(receiver.irecv(source="node0", tag=tag))
            cluster.sim.schedule_at(
                at,
                lambda s=size, t=tag: messages.append(sender.isend("node1", s, tag=t)),
            )
        cluster.run()
        posted = sum(size for _, size in sends)
        done = [m for m in messages if m.status is MessageStatus.COMPLETE]
        delivered = sum(h.matched.size for h in handles if h.matched is not None)
        failed = len(sends) - len(done)
        problems = []
        if failed:
            problems.append(f"episode {k}: {failed} of {len(sends)} messages incomplete")
        if delivered != posted:
            problems.append(f"episode {k}: delivered {delivered} B != posted {posted} B")
        sim = {
            "bytes": posted,
            "latencies": [m.t_complete - m.t_post for m in done],
            "makespan_us": (
                max(m.t_complete for m in done) - min(m.t_post for m in messages)
                if done else 0.0
            ),
        }
        return Outcome(units=len(sends), failed_units=failed, problems=problems, sim=sim)

    def sim_metrics(self, outcomes: List[Outcome]) -> Dict[str, float]:
        from repro.util.stats import percentile
        from repro.util.units import bytes_per_us_to_mbps

        episodes = [o.sim for o in outcomes if "latencies" in o.sim]
        makespan = sum(e["makespan_us"] for e in episodes)
        latencies = [x for e in episodes for x in e["latencies"]]
        out = {
            "paper_err_pct": outcomes[0].sim["paper_err_pct"],
            "sim_makespan_us": makespan,
            "sim_goodput_mbps": bytes_per_us_to_mbps(
                sum(e["bytes"] for e in episodes) / makespan
            ) if makespan > 0 else 0.0,
        }
        if latencies:
            out["sim_lat_p50_us"] = percentile(latencies, 50.0)
            out["sim_lat_p99_us"] = percentile(latencies, 99.0)
        return out


# ---------------------------------------------------------------------- #
# coll_alltoall
# ---------------------------------------------------------------------- #

#: the 128-rank row of BENCH_PR7/PR8 ``alltoall_flat_switch`` (µs)
COLL_PINNED_US = {
    "naive": 3718.0648636964393,
    "ring": 2957.7401184483324,
    "doubling": 3608.864412632927,
    "rails": 2800.29426127224,
}


def _alltoall_world(ranks: int, shape: str, observability: bool = False):
    from repro.api.mpi import MpiWorld
    from repro.hardware.topology import Fabric

    fabric = (
        Fabric.flat(ranks, rails=RAILS)
        if shape == "flat"
        else Fabric.fat_tree(ranks, rails=RAILS)
    )
    return MpiWorld.create(
        fabric=fabric, profiles=_profiles(), observability=observability
    )


def _run_alltoall(world, size: int, algorithm: str) -> None:
    def program(comm):
        yield from comm.alltoall(size, algorithm=algorithm)

    world.spawn_all(program)
    world.run()


class CollAlltoall(Workload):
    """Uniform alltoall at 128 ranks on a flat switch, four algorithms."""

    name = "coll_alltoall"
    why = (
        "128-rank uniform alltoall on a flat switch, naive/ring/doubling/"
        "rails: simtime processes, collectives and switch contention"
    )

    RANKS = 128
    SIZE = 16 * 1024
    ALGORITHMS = ("naive", "ring", "doubling", "rails")

    def setup(self) -> None:
        _profiles()

    def prepare(self):
        self.setup()
        return _alltoall_world(self.RANKS, "flat")

    def warm_up(self) -> None:
        for algo in self.ALGORITHMS:
            _run_alltoall(_alltoall_world(8, "flat"), self.SIZE, algo)

    def ops(self) -> List[Op]:
        return [(algo, lambda a=algo: self._alltoall(a)) for algo in self.ALGORITHMS]

    def _alltoall(self, algorithm: str) -> Outcome:
        world = _alltoall_world(self.RANKS, "flat")
        _run_alltoall(world, self.SIZE, algorithm)
        makespan = world.cluster.sim.now
        problems = _message_problems(
            f"alltoall {algorithm}", world.cluster.engines.values()
        )
        if makespan != COLL_PINNED_US[algorithm]:
            problems.append(
                f"alltoall {algorithm}: makespan {makespan!r} us != pinned "
                f"{COLL_PINNED_US[algorithm]!r} us"
            )
        return Outcome(
            units=1,
            failed_units=1 if problems else 0,
            problems=problems,
            sim={"makespan_us": makespan},
        )


# ---------------------------------------------------------------------- #
# fabric_chaos
# ---------------------------------------------------------------------- #


class FabricChaos(Workload):
    """Chaos, silent-degrade and fat-tree fabric soaks, monitor on."""

    name = "fabric_chaos"
    why = (
        "seed windows of the paper chaos, silent-degrade and 8-rank "
        "fat-tree fabric soaks under the invariant monitor: faults, "
        "retries, re-plans"
    )

    #: (kind, window size, run_scenario keywords).  Seed ``s`` soaks
    #: scenario seeds ``[s * size, (s + 1) * size)`` of each kind, so seed 0
    #: starts with the CI windows (chaos and silent 0-49, fabric 0-24).
    #: Windows this wide keep a round's cost nearly the same for every seed.
    KINDS: Tuple[Tuple[str, int, Dict[str, Any]], ...] = (
        ("chaos", 400, {}),
        ("silent", 400, {"silent": True, "calibration": True}),
        ("fabric", 80, {"shape": "fat_tree", "ranks": 8}),
    )

    def setup(self) -> None:
        _profiles()
        self.windows = [
            (kind, range(self.seed * n, (self.seed + 1) * n), kw)
            for kind, n, kw in self.KINDS
        ]

    def prepare(self):
        from repro.faults.chaos import ChaosSchedule

        self.setup()
        return ChaosSchedule(self.windows[0][1][0])

    def warm_up(self) -> None:
        for _, seeds, kw in self.windows:
            self._scenario(seeds[0], kw)

    def ops(self) -> List[Op]:
        return [
            (f"{kind}{seed}", lambda s=seed, kw=kw: self._scenario(s, kw))
            for kind, seeds, kw in self.windows
            for seed in seeds
        ]

    def _scenario(self, seed: int, kw: Dict[str, Any]) -> Outcome:
        from repro.faults.chaos import run_scenario

        r = run_scenario(seed, **kw)
        problems = []
        if r.violation is not None:
            problems.append(
                f"seed {seed} {kw}: {r.violation.invariant}: {r.violation.detail}"
            )
        # a posted message fails when degraded or undelivered, and every
        # message of a scenario that raised a violation fails
        failed = r.messages_sent if problems else r.messages_sent - r.messages_completed
        return Outcome(
            units=r.messages_sent,
            failed_units=failed,
            problems=problems,
            sim={"makespan_us": r.elapsed_us},
            violations=0 if r.ok else 1,
        )


# ---------------------------------------------------------------------- #
# obs_alltoall
# ---------------------------------------------------------------------- #


class ObsAlltoall(Workload):
    """32-rank fat-tree alltoall with the full observability stack."""

    name = "obs_alltoall"
    why = (
        "32-rank fat-tree alltoall, ring and rails, observability on with "
        "Chrome export, metrics snapshot and critical path: obs cost, ECMP"
    )

    RANKS = 32
    SIZE = 64 * 1024
    ALGORITHMS = ("ring", "rails")

    def setup(self) -> None:
        _profiles()

    def prepare(self):
        self.setup()
        return _alltoall_world(self.RANKS, "fat_tree", observability=True)

    def references(self) -> None:
        """Obs-off makespans of the same ops (the obs contract); they also
        warm the code paths the ops share."""
        self.reference_us: Dict[str, float] = {}
        for algo in self.ALGORITHMS:
            world = _alltoall_world(self.RANKS, "fat_tree")
            _run_alltoall(world, self.SIZE, algo)
            self.reference_us[algo] = world.cluster.sim.now

    def ops(self) -> List[Op]:
        return [(algo, lambda a=algo: self._alltoall(a)) for algo in self.ALGORITHMS]

    def _alltoall(self, algorithm: str) -> Outcome:
        from repro.obs.chrome_export import validate_chrome_trace
        from repro.obs.collective import critical_path

        world = _alltoall_world(self.RANKS, "fat_tree", observability=True)
        _run_alltoall(world, self.SIZE, algorithm)
        cluster = world.cluster
        makespan = cluster.sim.now
        trace = cluster.chrome_trace()
        encoded = json.dumps(trace, sort_keys=True)
        snapshot = cluster.metrics_snapshot()
        path = critical_path(cluster.obs.collectives.hops())
        problems = _message_problems(f"obs {algorithm}", cluster.engines.values())
        problems += [f"obs {algorithm} trace: {p}" for p in validate_chrome_trace(trace)[:5]]
        if not path:
            problems.append(f"obs {algorithm}: empty critical path")
        if not snapshot:
            problems.append(f"obs {algorithm}: empty metrics snapshot")
        reference = self.reference_us.get(algorithm)
        if makespan != reference:
            problems.append(
                f"obs {algorithm}: obs-on makespan {makespan!r} us != "
                f"obs-off {reference!r} us"
            )
        return Outcome(
            units=1,
            failed_units=1 if problems else 0,
            problems=problems,
            sim={"makespan_us": makespan},
            trace_bytes=len(encoded),
        )


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (PaperP2P, CollAlltoall, FabricChaos, ObsAlltoall)
}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
