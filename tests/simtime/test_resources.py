"""Unit tests for FIFO resources (the core-occupancy primitive)."""

import gc

import pytest

from repro.simtime import Resource, ResourceRequest, SimEvent, Simulator, Timeout
from repro.util.errors import SimulationError


def worker(sim, res, hold, log, tag):
    req = res.request()
    yield req
    log.append((tag, "start", sim.now))
    yield Timeout(hold)
    res.release(req)
    log.append((tag, "end", sim.now))


class TestResourceSerialization:
    def test_capacity_one_serializes_holders(self):
        sim = Simulator()
        res = Resource(sim, capacity=1, name="core")
        log = []
        sim.spawn(worker(sim, res, 5.0, log, "a"))
        sim.spawn(worker(sim, res, 3.0, log, "b"))
        sim.run()
        assert log == [
            ("a", "start", 0.0),
            ("a", "end", 5.0),
            ("b", "start", 5.0),
            ("b", "end", 8.0),
        ]

    def test_fifo_admission_order(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        starts = []

        def w(tag):
            req = res.request()
            yield req
            starts.append(tag)
            yield Timeout(1.0)
            res.release(req)

        for tag in "abcde":
            sim.spawn(w(tag))
        sim.run()
        assert starts == list("abcde")

    def test_capacity_two_allows_two_concurrent(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        log = []
        for tag in "abc":
            sim.spawn(worker(sim, res, 4.0, log, tag))
        sim.run()
        # a and b run together; c starts when the first finishes.
        assert ("a", "start", 0.0) in log
        assert ("b", "start", 0.0) in log
        assert ("c", "start", 4.0) in log

    def test_no_gap_between_release_and_next_grant(self):
        """Back-to-back holders leave zero idle time (Fig. 4a serialization)."""
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []
        sim.spawn(worker(sim, res, 2.0, log, "x"))
        sim.spawn(worker(sim, res, 2.0, log, "y"))
        sim.run()
        x_end = next(t for tag, kind, t in log if (tag, kind) == ("x", "end"))
        y_start = next(t for tag, kind, t in log if (tag, kind) == ("y", "start"))
        assert y_start == x_end


class TestResourceErrors:
    def test_zero_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_double_release_rejected(self):
        sim = Simulator()
        res = Resource(sim)
        req = res.request()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    def test_release_of_ungranted_request_rejected(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        res.request()  # takes the slot
        queued = res.request()
        with pytest.raises(SimulationError):
            res.release(queued)

    def test_cancel_queued_request(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        first = res.request()
        queued = res.request()
        queued.cancel()
        assert res.queued == 0
        res.release(first)
        assert res.available == 1

    def test_cancel_granted_request_rejected(self):
        sim = Simulator()
        res = Resource(sim)
        req = res.request()
        with pytest.raises(SimulationError):
            req.cancel()

    def test_counters(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        r1 = res.request()
        r2 = res.request()
        res.request()
        assert res.in_use == 2
        assert res.available == 0
        assert res.queued == 1
        res.release(r1)
        assert res.in_use == 2  # queued waiter got the slot
        assert res.queued == 0


class TestGrantRecords:
    """Requests are their own waitables and leave no reference cycles."""

    def test_yield_returns_the_request_and_grants_stay_fifo(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        got = []

        def w(tag):
            req = res.request()
            granted = yield req
            assert granted is req and req.granted
            got.append((tag, sim.now))
            yield Timeout(1.0)
            res.release(req)

        for tag in "abcd":
            sim.spawn(w(tag))
        sim.run()
        assert got == [("a", 0.0), ("b", 1.0), ("c", 2.0), ("d", 3.0)]

    def test_waiters_of_one_request_resume_in_subscription_order(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        first = res.request()
        queued = res.request()
        woken = []
        queued.subscribe(sim, lambda v: woken.append(("x", v)))
        queued.subscribe(sim, lambda v: woken.append(("y", v)))
        res.release(first)
        assert woken == []  # delivery is deferred to the event loop
        sim.run()
        assert woken == [("x", queued), ("y", queued)]
        queued.subscribe(sim, lambda v: woken.append(("late", v)))
        sim.run()
        assert woken[-1] == ("late", queued)

    def test_subscribe_from_another_simulator_rejected(self):
        res = Resource(Simulator())
        with pytest.raises(SimulationError):
            res.request().subscribe(Simulator(), lambda v: None)

    def test_contended_run_leaves_no_cyclic_garbage(self):
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            sim = Simulator()
            res = Resource(sim, capacity=2, name="core")
            log = []
            for i in range(50):
                sim.spawn(worker(sim, res, 1.0 + i % 3, log, i))
            sim.run()
            assert len(log) == 100
            del sim, res, log
            gc.collect()
            leaked = [
                type(o).__name__
                for o in gc.garbage
                if isinstance(o, (ResourceRequest, SimEvent))
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []
