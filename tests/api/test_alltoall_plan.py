"""The balanced all-to-all plan is computed once per world call.

Covers the shared :class:`~repro.api.collectives.AlltoallPlan`: segment
cutting scales with the distinct flow sizes (not ranks³), its tag span
matches the brute-force maximum, back-to-back calls never reuse a stale
plan, a rank with a bad or different matrix still plans (and fails) on
its own — plus an event-count oracle that pins the simulator's work for
every alltoall algorithm, so changes to the grant path cannot add, drop
or reorder events that a makespan happens not to expose.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Fabric
from repro.api import collectives as coll
from repro.api.mpi import MpiWorld
from repro.bench.runners import default_profiles
from repro.simtime import process as simprocess
from repro.simtime import resources as simresources
from repro.util.errors import ConfigurationError
from repro.util.units import KiB, MiB

RAILS = ("myri10g", "quadrics")


@pytest.fixture(scope="module")
def profiles():
    return default_profiles(RAILS)


@pytest.fixture(scope="module")
def ests(profiles):
    return [profiles.estimators[t] for t in sorted(profiles.estimators)]


def flat_world(n, profiles):
    return MpiWorld.create(fabric=Fabric.flat(n, rails=RAILS), profiles=profiles)


def run(world, body):
    world.spawn_all(body)
    world.run()
    return world.cluster.sim.now


def record_plans(world):
    """Wrap ``world.alltoall_plan``; return the (seq, plan) log."""
    log = []
    inner = world.alltoall_plan

    def spy(seq, source, build):
        plan = inner(seq, source, build)
        log.append((seq, plan))
        return plan

    world.alltoall_plan = spy
    return log


class TestEventOracle:
    """32 ranks, flat switch, 16 KiB per pair: the simulator's work."""

    #: algorithm -> (events, processes, resource requests, makespan µs)
    PINNED = {
        "naive": (11040, 2016, 3968, 927.0271916191581),
        "ring": (13920, 2016, 3968, 721.9680604086473),
        "doubling": (6112, 1312, 1600, 684.631716810555),
        "rails": (12032, 2016, 3968, 682.4465974176456),
    }

    @pytest.mark.parametrize("algorithm", sorted(PINNED))
    def test_counts_are_pinned(self, profiles, monkeypatch, algorithm):
        counts = {"processes": 0, "requests": 0}
        init = simprocess.Process.__init__
        request = simresources.Resource.request

        def counting_init(self, *args, **kwargs):
            counts["processes"] += 1
            init(self, *args, **kwargs)

        def counting_request(self):
            counts["requests"] += 1
            return request(self)

        monkeypatch.setattr(simprocess.Process, "__init__", counting_init)
        monkeypatch.setattr(simresources.Resource, "request", counting_request)
        world = flat_world(32, profiles)

        def program(comm):
            yield from comm.alltoall(16 * KiB, algorithm=algorithm)

        makespan = run(world, program)
        got = (
            world.cluster.sim.events_processed,
            counts["processes"],
            counts["requests"],
            makespan,
        )
        assert got == self.PINNED[algorithm]


@pytest.fixture
def cuts(monkeypatch):
    """Sizes passed to ``rails_segments``, in call order."""
    calls = []
    cut = coll.rails_segments

    def counting(size, estimators):
        calls.append(size)
        return cut(size, estimators)

    monkeypatch.setattr(coll, "rails_segments", counting)
    return calls


class TestPlanOncePerWorld:
    def test_segments_cut_once_per_distinct_size(self, profiles, cuts):
        world = flat_world(32, profiles)

        def program(comm):
            yield from comm.alltoall(16 * KiB, algorithm="rails")

        run(world, program)
        assert cuts == [16 * KiB]

    def test_skewed_matrix_cuts_each_size_once(self, profiles, cuts):
        matrix = coll.moe_matrix(16, 64 * KiB, hot_ranks=2, skew=8)
        world = flat_world(16, profiles)

        def program(comm):
            yield from comm.alltoallv(matrix, algorithm="rails")

        run(world, program)
        assert sorted(cuts) == [64 * KiB, 8 * 64 * KiB]

    def test_every_rank_shares_one_plan_and_it_is_released(self, profiles):
        world = flat_world(8, profiles)
        log = record_plans(world)

        def program(comm):
            yield from comm.alltoall(64 * KiB, algorithm="rails")

        run(world, program)
        assert len(log) == 8
        assert len({id(plan) for _, plan in log}) == 1
        assert world._plans == {}

    def test_back_to_back_calls_get_their_own_plans(self, profiles):
        first = coll.moe_matrix(8, 32 * KiB, hot=[1], skew=4)
        second = coll.moe_matrix(8, 48 * KiB, hot=[5, 6], skew=2)
        world = flat_world(8, profiles)
        log = record_plans(world)

        def program(comm):
            yield from comm.alltoallv(first, algorithm="rails")
            yield from comm.alltoallv(second, algorithm="rails")

        run(world, program)
        world.cluster.check_drain()
        by_seq = {}
        for seq, plan in log:
            by_seq.setdefault(seq, set()).add(id(plan))
        assert len(by_seq) == 2 and all(len(ids) == 1 for ids in by_seq.values())
        plans = [plan for _, plan in sorted(log, key=lambda e: e[0])]
        assert plans[0].matrix == first and plans[-1].matrix == second
        total = sum(e.bytes_sent for e in world.cluster.engines.values())
        assert total == sum(map(sum, first)) + sum(map(sum, second))

    def test_shared_plans_are_bit_identical_to_private_plans(self, profiles):
        matrix = coll.moe_matrix(8, 64 * KiB, hot=[3, 6], skew=8)
        # Equal but distinct matrices still match the planned one.
        copies = [[list(row) for row in matrix] for _ in range(8)]

        def program(comm):
            yield from comm.alltoallv(copies[comm.rank], algorithm="rails")

        shared = flat_world(8, profiles)
        log = record_plans(shared)
        private = flat_world(8, profiles)
        ests = private.rail_estimators()
        private.alltoall_plan = lambda seq, source, build: build(ests)
        assert run(shared, program) == run(private, program)
        assert len({id(plan) for _, plan in log}) == 1


class TestMismatchedRanks:
    def test_a_bad_matrix_raises_on_the_first_rank(self, profiles):
        good = coll.uniform_matrix(4, 32 * KiB)
        bad = [list(row) for row in good]
        bad[2][2] = 1 * KiB  # self-send

        def program(comm):
            yield from comm.alltoallv(bad if comm.rank == 0 else good, "rails")

        with pytest.raises(ConfigurationError, match="self-send at rank 2"):
            run(flat_world(4, profiles), program)

    def test_a_bad_matrix_raises_on_a_later_rank(self, profiles):
        good = coll.uniform_matrix(4, 32 * KiB)
        bad = [list(row) for row in good]
        bad[1][3] = "lots"

        def program(comm):
            yield from comm.alltoallv(bad if comm.rank == 3 else good, "rails")

        with pytest.raises(ConfigurationError, match="bad traffic matrix entry"):
            run(flat_world(4, profiles), program)

    def test_a_different_matrix_gets_a_private_plan(self, profiles):
        good = coll.uniform_matrix(4, 32 * KiB)
        other = [list(row) for row in good]
        other[0][1] = 64 * KiB
        world = flat_world(4, profiles)
        log = record_plans(world)

        def program(comm):
            yield from comm.alltoallv(other if comm.rank == 2 else good, "naive")

        run(world, program)
        # Ranks reach the call in rank order: rank 2 planned on its own.
        plans = [plan for _, plan in log]
        assert [p.matrix[0][1] for p in plans] == [32 * KiB] * 2 + [64 * KiB, 32 * KiB]
        assert plans[0] is plans[1] is plans[3] and plans[2] is not plans[0]


def reference_schedule(rank, matrix, ests):
    """The per-rank balanced schedule as first written: every flow cut
    on its own, cycles ordered by integer bytes remaining."""
    n = len(matrix)
    queues, remaining = {}, {}
    for d in range(1, n):
        dst = (rank + d) % n
        if matrix[rank][dst] > 0:
            segs = coll.rails_segments(matrix[rank][dst], ests)
            queues[dst] = list(enumerate(segs))
            remaining[dst] = matrix[rank][dst]
    order = []
    while queues:
        for dst in sorted(queues, key=lambda d: (-remaining[d], (d - rank) % n)):
            t, seg = queues[dst].pop(0)
            order.append((dst, t, seg))
            remaining[dst] -= seg
            if not queues[dst]:
                del queues[dst], remaining[dst]
    return order


MATRIX_KINDS = ("uniform", "moe", "sparse")


@st.composite
def traffic_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    base = draw(st.sampled_from([1, 4 * KiB, 40 * KiB, 300 * KiB, 2 * MiB]))
    kind = draw(st.sampled_from(MATRIX_KINDS))
    if kind == "uniform":
        return coll.uniform_matrix(n, base)
    if kind == "moe":
        hot = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1))
        skew = draw(st.integers(min_value=1, max_value=16))
        return coll.moe_matrix(n, base, hot=hot, skew=skew)
    cells = st.one_of(st.just(0), st.integers(min_value=1, max_value=8 * MiB))
    rows = draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=n, max_size=n))
    for i in range(n):
        rows[i][i] = 0
    return rows


class TestSpanProperty:
    @given(matrix=traffic_matrices())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_span_and_schedules_match_per_flow_cutting(self, ests, matrix):
        plan = coll.AlltoallPlan(matrix, ests)
        brute = max(
            (
                len(coll.rails_segments(s, ests))
                for row in matrix
                for s in row
                if s > 0
            ),
            default=1,
        )
        assert plan.span == brute
        for rank in range(len(matrix)):
            assert plan.schedule(rank) == reference_schedule(rank, matrix, ests)


def test_world_reserves_the_plan_span(profiles):
    """The tag block a rails call consumes covers the widest flow."""
    matrix = coll.moe_matrix(4, 1 * MiB, hot=[2], skew=16)
    world = flat_world(4, profiles)
    span = coll.AlltoallPlan(matrix, world.rail_estimators()).span
    assert span > 1

    def program(comm):
        yield from comm.alltoallv(matrix, algorithm="rails")

    run(world, program)
    blocks = -(-span // world.comms[0]._TAGS_PER_COLLECTIVE)
    assert all(c._collective_seq == blocks for c in world.comms)
