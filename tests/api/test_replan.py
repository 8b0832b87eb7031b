"""Mid-collective re-planning: the fault-aware balanced all-to-allv.

``algorithm="replan"`` runs the RailS-style balanced schedule in
windows; when fault/degrade/retry signals fire mid-collective it re-cuts
the remaining segment queue largest-remaining-first.  Healthy runs never
re-plan; under a mid-collective spine outage the re-planning schedule
completes with zero invariant violations and beats the fault-oblivious
one.
"""

import json
from pathlib import Path

import pytest

from repro.api import ClusterBuilder
from repro.api import collectives as coll
from repro.api.collectives import VALID_ALGORITHMS
from repro.api.mpi import MpiWorld
from repro.bench.runners import default_profiles
from repro.faults import FaultSchedule
from repro.hardware.topology import Fabric
from repro.util.units import KiB

RAILS = ("myri10g", "quadrics")
RANKS = 8


@pytest.fixture(scope="module")
def profiles():
    return default_profiles(RAILS)


def spine_outage():
    """Spine0 of both rails down mid-collective."""
    sched = FaultSchedule(seed=1)
    for i in range(len(RAILS)):
        sched.spine_down(f"fattree{i}.spine0", at="300us", duration="1200us")
    return sched


def fat_tree_world(
    profiles, adaptive=True, schedule=None, invariants=True, metrics=False
):
    fab = Fabric.fat_tree(
        RANKS, rails=RAILS, pod_size=4, spines=2, prefix="rank",
        adaptive=adaptive,
    )
    builder = (
        ClusterBuilder("hetero_split").fabric(fab).sampling(profiles=profiles)
    )
    if schedule is not None:
        builder.resilience(timeout="200us", max_retries=8)
        builder.faults(schedule)
    if invariants:
        builder.invariants()
    if metrics:
        builder.observability(
            trace=False, metrics=True, accuracy=False, collectives=False
        )
    return MpiWorld.from_cluster(builder.build())


def run_alltoallv(world, matrix, algorithm):
    def program(comm):
        yield from comm.alltoallv(matrix, algorithm=algorithm)

    world.spawn_all(program)
    world.run()
    return world.cluster.sim.now


class TestAlgorithmSurface:
    def test_replan_is_a_valid_alltoallv_algorithm(self):
        assert "replan" in VALID_ALGORITHMS["alltoallv"]

    def test_auto_never_picks_replan(self, profiles):
        # The cost model prices only matrix-capable static schedules;
        # replan is opt-in (it pays re-planning machinery for nothing on
        # a healthy fabric).
        sel = coll.AlgorithmSelector(profiles.estimators)
        for size in (1 * KiB, 64 * KiB, 1024 * KiB):
            assert "replan" not in sel.costs("alltoallv", size, RANKS)
            assert sel.select("alltoallv", size, RANKS) in ("naive", "rails")


class TestHealthyRuns:
    def test_moves_exact_volume_under_the_monitor(self, profiles):
        matrix = coll.moe_matrix(RANKS, 32 * KiB, skew=4)
        expected = sum(v for row in matrix for v in row)
        world = fat_tree_world(profiles)
        run_alltoallv(world, matrix, "replan")
        world.cluster.check_drain()
        total = sum(e.bytes_sent for e in world.cluster.engines.values())
        assert total == expected

    def test_double_run_is_deterministic(self, profiles):
        matrix = coll.moe_matrix(RANKS, 32 * KiB, skew=4)
        a = run_alltoallv(fat_tree_world(profiles), matrix, "replan")
        b = run_alltoallv(fat_tree_world(profiles), matrix, "replan")
        assert a == b

    def test_healthy_run_never_replans(self, profiles):
        matrix = coll.moe_matrix(RANKS, 32 * KiB, skew=4)
        world = fat_tree_world(profiles, metrics=True)
        run_alltoallv(world, matrix, "replan")
        snapshot = world.cluster.metrics_snapshot()
        assert snapshot.get("counters", {}).get("collective.replans", 0) == 0


class TestSpineOutage:
    MATRIX = staticmethod(
        lambda: coll.moe_matrix(RANKS, 64 * KiB, hot=[3, 6], skew=8)
    )

    def test_completes_with_zero_violations_and_replans(self, profiles):
        world = fat_tree_world(
            profiles, schedule=spine_outage(), metrics=True
        )
        # The armed monitor raises on any violation — completing the
        # run IS the zero-violations assertion.
        run_alltoallv(world, self.MATRIX(), "replan")
        world.cluster.check_drain()
        assert world.cluster.invariants.checks_performed > 0
        snapshot = world.cluster.metrics_snapshot()
        assert snapshot["counters"]["collective.replans"] >= 1

    def test_replan_makespan_matches_bench_pr10(self, profiles):
        # The committed BENCH_PR10 scenario (2614.5 us): the per-world
        # plan must leave every re-planned hop where it was.
        bench = Path(__file__).resolve().parents[2] / "BENCH_PR10.json"
        pinned = json.loads(bench.read_text())["degraded"]["replan"]
        world = fat_tree_world(profiles, schedule=spine_outage())
        assert run_alltoallv(world, self.MATRIX(), "replan") == pinned["makespan_us"]
        assert round(pinned["makespan_us"], 1) == 2614.5

    def test_adaptive_routing_reroutes_flows(self, profiles):
        from repro.networks.switch import FatTreeSwitch

        world = fat_tree_world(profiles, schedule=spine_outage())
        run_alltoallv(world, self.MATRIX(), "replan")
        switches = {
            id(nic.wire): nic.wire
            for e in world.cluster.engines.values()
            for nic in e.machine.nics
            if isinstance(nic.wire, FatTreeSwitch)
        }
        rerouted = sum(s.spine_rerouted_packets for s in switches.values())
        assert rerouted > 0

    def test_replan_beats_the_blind_schedule(self, profiles):
        replanned = run_alltoallv(
            fat_tree_world(profiles, schedule=spine_outage()),
            self.MATRIX(),
            "replan",
        )
        blind = run_alltoallv(
            fat_tree_world(
                profiles,
                adaptive=False,
                schedule=spine_outage(),
                invariants=False,
            ),
            self.MATRIX(),
            "rails",
        )
        assert replanned < blind

    def test_outage_run_is_deterministic(self, profiles):
        a = run_alltoallv(
            fat_tree_world(profiles, schedule=spine_outage()),
            self.MATRIX(),
            "replan",
        )
        b = run_alltoallv(
            fat_tree_world(profiles, schedule=spine_outage()),
            self.MATRIX(),
            "replan",
        )
        assert a == b
