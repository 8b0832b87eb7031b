"""A CPU core as a serially-occupied virtual-time resource.

Two usage styles, matching the simulator's two styles:

* **process style** — ``yield from core.occupy(cost, label)`` from inside a
  simulation process: waits for the core, holds it ``cost`` µs, releases;
* **callback style** — ``core.run(cost, fn, *args)``: queues a work item;
  when the core reaches it, holds the core ``cost`` µs then calls ``fn``.

Both styles share one FIFO, so PIO copies, tasklet bodies and application
compute contend for the core exactly as they would on real hardware.

The core also keeps the two pieces of bookkeeping the paper's strategy
needs: *is the core idle right now?* (the strategy splits into at most
``min(#idle NICs, #idle cores)`` chunks, §III-B) and *when will it become
idle?* (idle-time prediction, §II-B / Fig. 2 — applied to cores the same
way it is applied to NICs).
"""

from __future__ import annotations

from typing import Any, Callable, List, NamedTuple, Optional

from repro.simtime import Resource, Simulator, Timeout
from repro.util.errors import SchedulingError


class CoreWork(NamedTuple):
    """One completed occupancy interval, for utilization accounting."""

    start: float
    end: float
    label: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Core:
    """A single CPU core.

    Parameters
    ----------
    sim:
        The simulator this core lives in.
    core_id:
        Global core index within the machine.
    socket_id:
        Socket (package) the core belongs to; inter-core signalling is
        cheaper within a socket (see :class:`~repro.hardware.topology.CpuTopology`).
    """

    def __init__(self, sim: Simulator, core_id: int, socket_id: int = 0) -> None:
        self.sim = sim
        self.core_id = core_id
        self.socket_id = socket_id
        self._res = Resource(sim, capacity=1, name=f"core{core_id}")
        self._busy_until: float = 0.0
        self.work_log: List[CoreWork] = []
        #: total µs this core has been held (kept incrementally so that
        #: utilization queries do not scan the log)
        self.busy_time: float = 0.0

    def __repr__(self) -> str:
        state = "idle" if self.is_idle else f"busy until {self._busy_until:.2f}"
        return f"<Core {self.core_id} (socket {self.socket_id}) {state}>"

    # ------------------------------------------------------------------ #
    # state queries used by the strategy layer
    # ------------------------------------------------------------------ #

    @property
    def is_idle(self) -> bool:
        """True when nothing holds or waits for the core *and* no declared
        work extends past the current instant."""
        return (
            self._res.in_use == 0
            and self._res.queued == 0
            and self.sim.now >= self._busy_until
        )

    @property
    def busy_until(self) -> float:
        """Predicted instant the core frees up, given declared work costs.

        For an idle core this is the current time.  The prediction is
        exact as long as every occupier declared its true cost — which the
        engine guarantees, since PIO copy durations are computed from the
        message size before the copy is issued.
        """
        return max(self.sim.now, self._busy_until)

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of ``[since, now]`` the core spent occupied."""
        window = self.sim.now - since
        if window <= 0:
            return 0.0
        busy = sum(
            min(w.end, self.sim.now) - max(w.start, since)
            for w in self.work_log
            if w.end > since
        )
        return busy / window

    # ------------------------------------------------------------------ #
    # occupancy
    # ------------------------------------------------------------------ #

    def occupy(self, cost: float, label: str = "work", on_start=None):
        """Process-style occupancy: ``yield from core.occupy(cost)``.

        Declares ``cost`` up front (feeding :attr:`busy_until`), waits for
        the core FIFO, holds it for ``cost`` µs, then releases.
        ``on_start`` (if given) is called the instant the core is actually
        acquired — mirroring :meth:`hold_declared`, for callers that need
        to timestamp the true start of service.
        """
        if cost < 0:
            raise SchedulingError(f"negative occupancy cost: {cost}")
        self._declare(cost)
        req = self._res.request()
        yield req
        start = self.sim.now
        if on_start is not None:
            on_start()
        yield Timeout(cost)
        self._res.release(req)
        self._record(start, self.sim.now, label)

    def run(
        self,
        cost: float,
        callback: Optional[Callable[..., None]] = None,
        *args: Any,
        label: str = "work",
    ) -> None:
        """Callback-style occupancy: queue ``cost`` µs of work, then call
        ``callback(*args)`` (if given) the instant the work completes."""
        if cost < 0:
            raise SchedulingError(f"negative occupancy cost: {cost}")
        self._declare(cost)

        def body():
            req = self._res.request()
            yield req
            start = self.sim.now
            yield Timeout(cost)
            self._res.release(req)
            self._record(start, self.sim.now, label)
            if callback is not None:
                callback(*args)

        self.sim.spawn(body(), name=f"core{self.core_id}.{label}")

    def declare(self, cost: float) -> None:
        """Pre-announce ``cost`` µs of imminent work (feeds :attr:`busy_until`).

        Used when the work item will start after an external wait (e.g. a
        PIO copy queued behind a NIC transmit engine) but the strategy
        must already see the core as committed.  Pair with
        :meth:`hold_declared`, which performs the occupancy *without*
        declaring again.
        """
        if cost < 0:
            raise SchedulingError(f"negative occupancy cost: {cost}")
        self._declare(cost)

    def hold_declared(self, cost: float, label: str = "work", on_start=None):
        """Process-style occupancy for work already announced via
        :meth:`declare`: ``yield from core.hold_declared(cost)``.

        ``on_start`` (if given) is called the instant the core is actually
        acquired — the precise start of the copy, which timing-sensitive
        callers (the NIC pipelines) need to timestamp.
        """
        if cost < 0:
            raise SchedulingError(f"negative occupancy cost: {cost}")
        req = self._res.request()
        yield req
        start = self.sim.now
        if on_start is not None:
            on_start()
        yield Timeout(cost)
        self._res.release(req)
        self._record(start, self.sim.now, label)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _declare(self, cost: float) -> None:
        base = max(self.sim.now, self._busy_until)
        self._busy_until = base + cost

    def _record(self, start: float, end: float, label: str) -> None:
        self.work_log.append(CoreWork(start, end, label))
        self.busy_time += end - start
