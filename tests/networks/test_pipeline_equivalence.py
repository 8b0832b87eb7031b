"""The callback NIC and core pipelines against generator references.

The send pipelines and receive-side core work run as per-transfer step
functions the simulator calls directly.  This module keeps the
generator-process pipelines they replaced as a test-only reference and
drives identical random transfer streams (eager, rendezvous and control
transfers on two rails and four cores per node, link failures and
recoveries, drop rules, background transmit load) through both, on one
simulator each.  Every timestamp, flag, work log and the event count
must agree: the rewrite may change how the host does the work, never
what is simulated.
"""

import gc
import random
from functools import partial
from types import MethodType

from hypothesis import example, given, settings, strategies as st

from repro.hardware import Machine
from repro.hardware.core import Core
from repro.networks import ElanDriver, MxDriver, Transfer, TransferKind, Wire
from repro.networks.nic import DropRule, Nic, NicWork
from repro.pioman import PiomanEngine
from repro.simtime import ResourceRequest, Simulator, Timeout

KINDS = (
    TransferKind.EAGER,
    TransferKind.RDV_DATA,
    TransferKind.RDV_REQ,
    TransferKind.RDV_ACK,
)


# -- the generator reference ------------------------------------------------


def drive(sim, gen, value=None):
    """Resume ``gen`` and re-arm it on the waitable it yields.

    What a spawned ``Process`` does at each resumption.  The reference
    starts it from the step that the NIC's ``submit`` schedules at delay
    0, which stands for the spawn's own first event.
    """
    try:
        waitable = gen.send(value)
    except StopIteration:
        return
    waitable.subscribe(sim, partial(drive, sim, gen))


def occupy(core, cost, label, on_start):
    """``Core.occupy`` with its former ``on_start`` hook."""
    core.declare(cost)
    yield from hold_declared(core, cost, label, on_start)


def hold_declared(core, cost, label, on_start):
    """The former ``Core.hold_declared``: occupancy of declared work."""
    req = core.request()
    yield req
    start = core.sim.now
    on_start()
    yield Timeout(cost)
    core.release(req, start, label)


def reference_run(core, cost, callback=None, *args, label="work"):
    """The former ``Core.run``: one spawned process per work item."""
    core.declare(cost)

    def body():
        req = core.request()
        yield req
        start = core.sim.now
        yield Timeout(cost)
        core.release(req, start, label)
        if callback is not None:
            callback(*args)

    core.sim.spawn(body())


class GeneratorNic(Nic):
    """A NIC whose send pipelines are the former generator processes."""

    def _eager_start(self, transfer, core):
        drive(self.sim, self._eager_pipeline(transfer, core))

    def _rdv_start(self, transfer, core):
        drive(self.sim, self._rdv_pipeline(transfer, core))

    def _control_start(self, transfer, core):
        drive(self.sim, self._control_pipeline(transfer, core))

    def inject_busy(self, duration):
        self._declare(duration)

        def body():
            req = self._tx.request()
            yield req
            start = self.sim.now
            yield Timeout(duration)
            self._tx.release(req)
            self.work_log.append(
                NicWork(start, self.sim.now, TransferKind.RDV_DATA, 0)
            )
            self._maybe_notify_idle()

        self.sim.spawn(body())

    def _eager_pipeline(self, transfer, core):
        post = self.profile.post_overhead
        copy = self._eager_tx_time(transfer.size)

        def stamp_service():
            transfer.t_service_start = self.sim.now

        yield from occupy(core, post, f"post:{self.name}", stamp_service)
        if transfer.aborted:
            self._finish_aborted(transfer)
            return
        core.declare(copy)
        req = self._tx.request()
        yield req
        if transfer.aborted:
            self._tx.release(req)
            self._finish_aborted(transfer)
            return

        def stamp_start():
            transfer.t_cpu_start = self.sim.now
            transfer.t_wire_start = self.sim.now

        yield from hold_declared(core, copy, f"pio:{self.name}", stamp_start)
        self._tx.release(req)
        self._finish_tx(transfer, start=transfer.t_cpu_start)

    def _rdv_pipeline(self, transfer, core):
        def stamp_service():
            transfer.t_service_start = self.sim.now

        yield from occupy(
            core, self.profile.rdv_send_cpu(), f"rdv-setup:{self.name}",
            stamp_service,
        )
        if transfer.aborted:
            self._finish_aborted(transfer)
            return
        req = self._tx.request()
        yield req
        if transfer.aborted:
            self._tx.release(req)
            self._finish_aborted(transfer)
            return
        transfer.t_wire_start = self.sim.now
        yield Timeout(self._rdv_tx_time(transfer.size))
        self._tx.release(req)
        self._finish_tx(transfer, start=transfer.t_wire_start)

    def _control_pipeline(self, transfer, core):
        def stamp_service():
            transfer.t_service_start = self.sim.now

        yield from occupy(
            core, self.profile.control_send_cpu(), f"ctrl:{self.name}",
            stamp_service,
        )
        if transfer.aborted:
            self._finish_aborted(transfer)
            return
        transfer.t_wire_start = self.sim.now
        self._finish_tx(transfer, start=self.sim.now)


# -- one scenario, run on either implementation ----------------------------


def build(reference):
    """The paper's two-node testbed, with PIOMan receive processing."""
    sim = Simulator()
    nic_cls = GeneratorNic if reference else Nic
    nodes = (Machine(sim, "node0"), Machine(sim, "node1"))
    for driver in (MxDriver(), ElanDriver()):
        Wire(nic_cls(nodes[0], driver), nic_cls(nodes[1], driver))
    for node in nodes:
        if reference:
            for core in node.cores:
                core.run = partial(reference_run, core)
        PiomanEngine(node, multicore_rx=True).bind()
    return sim, nodes


def play(scenario, reference):
    stream, faults, drops, busy = scenario
    sim, nodes = build(reference)
    transfers = []

    def nic_of(node, rail):
        return nodes[node].nics[rail]

    def submit(node, rail, core, kind, size):
        nic = nic_of(node, rail)
        if kind is TransferKind.EAGER:
            size %= nic.profile.eager_limit + 1
        elif kind is not TransferKind.RDV_DATA:
            size = 0
        t = Transfer(kind=kind, size=size, msg_id=len(transfers))
        transfers.append(t)
        nic.submit(t, nodes[node].cores[core])

    for at, node, rail, core, kind, size in stream:
        sim.schedule_at(at, submit, node, rail, core, kind, size)
    for at, node, rail, down_for in faults:
        nic = nic_of(node, rail)
        sim.schedule_at(at, nic.fail)
        sim.schedule_at(at + down_for, nic.recover)
    for node, rail, kinds, probability, seed in drops:
        nic_of(node, rail).drop_rules.append(
            DropRule(frozenset(kinds), probability, random.Random(seed))
        )
    for at, node, rail, duration in busy:
        sim.schedule_at(at, nic_of(node, rail).inject_busy, duration)
    sim.run()
    return {
        "now": sim.now,
        "events": sim.events_processed,
        "transfers": [
            (
                t.t_submit, t.t_service_start, t.t_cpu_start, t.t_wire_start,
                t.t_tx_done, t.t_delivered, t.t_complete, t.aborted, t.dropped,
            )
            for t in transfers
        ],
        "cores": [list(c.work_log) for n in nodes for c in n.cores],
        "nics": [
            (list(nic.work_log), nic.transfers_aborted, nic.transfers_dropped)
            for n in nodes
            for nic in n.nics
        ],
    }


#: quarter-µs grid over a short window: many transfers contend for the
#: same cores and transmit engines, and events coincide in time
times = st.integers(0, 160).map(lambda q: q * 0.25)
endpoints = (st.integers(0, 1), st.integers(0, 1))
scenarios = st.tuples(
    st.lists(
        st.tuples(
            times, *endpoints, st.integers(0, 3), st.sampled_from(KINDS),
            st.integers(0, 256 * 1024),
        ),
        min_size=1,
        max_size=60,
    ),
    st.lists(st.tuples(times, *endpoints, st.integers(1, 80)), max_size=4),
    st.lists(
        st.tuples(
            *endpoints,
            st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
            st.sampled_from([0.25, 0.5, 1.0]),
            st.integers(0, 2**16),
        ),
        max_size=2,
    ),
    st.lists(st.tuples(times, *endpoints, st.integers(1, 50)), max_size=3),
)


#: node0's Myri rail fails while an eager packet and a DMA chunk queue
#: behind a long DMA for its transmit engine; after recovery, later
#: transfers need the engine the aborted ones handed back
ABORT_WHILE_QUEUED = (
    [
        (0.0, 0, 0, 0, TransferKind.RDV_DATA, 256 * 1024),
        (3.0, 0, 0, 1, TransferKind.EAGER, 1024),
        (0.5, 0, 0, 2, TransferKind.RDV_DATA, 4096),
        (20.0, 0, 0, 3, TransferKind.EAGER, 64),
        (20.0, 0, 0, 0, TransferKind.RDV_REQ, 0),
    ],
    [(5.0, 0, 0, 10)],
    [],
    [],
)


@settings(deadline=None, derandomize=True, max_examples=75)
@given(scenarios)
@example(ABORT_WHILE_QUEUED)
def test_callback_pipelines_match_generator_reference(scenario):
    got = play(scenario, reference=False)
    assert got == play(scenario, reference=True)


def test_transfers_leave_no_cyclic_garbage():
    """Eager, rendezvous and control transfers, one of them aborted by a
    link failure: no resource request and no pipeline step reaches the
    cyclic collector — reference counting frees them as the run goes."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        sim, (node_a, node_b) = build(reference=False)
        mx, elan = node_a.nics
        sent = [
            Transfer(kind=TransferKind.EAGER, size=4096, msg_id=0),
            Transfer(kind=TransferKind.RDV_DATA, size=1 << 20, msg_id=1),
            Transfer(kind=TransferKind.RDV_REQ, size=0, msg_id=2),
            Transfer(kind=TransferKind.RDV_DATA, size=1 << 20, msg_id=3),
        ]
        mx.submit(sent[0], node_a.cores[0])
        mx.submit(sent[1], node_a.cores[1])
        elan.submit(sent[2], node_a.cores[2])
        elan.submit(sent[3], node_a.cores[3])
        elan.inject_busy(3.0)
        sim.schedule(20.0, elan.fail)
        sim.schedule(40.0, elan.recover)
        sim.run()
        assert [t.aborted for t in sent] == [False, False, False, True]
        assert sent[0].t_complete is not None and sent[1].t_complete is not None
        gc.collect()
        leaked = [
            type(o).__name__
            for o in gc.garbage
            if isinstance(o, (ResourceRequest, partial))
            or isinstance(o, MethodType) and isinstance(o.__self__, (Nic, Core))
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []
