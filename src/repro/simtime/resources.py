"""Capacity-limited resources with FIFO queuing.

A :class:`Resource` models anything that serializes access in virtual
time — a CPU core executing PIO copies, a DMA engine, a lock.  Requests
are themselves waitables, so processes can write::

    req = core_resource.request()
    yield req                  # granted when a slot frees up
    yield Timeout(copy_cost)   # hold the core for the copy duration
    core_resource.release(req)
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from repro.simtime.process import Waitable
from repro.simtime.simulator import Simulator
from repro.util.errors import SimulationError


class ResourceRequest(Waitable):
    """A pending or granted claim on a :class:`Resource` slot.

    The request is its own one-shot waitable: waiters resume (in
    subscription order, at delay 0) with the request as payload once it
    is granted.  It holds no inner event and no back-reference to one,
    so a finished request is freed by reference counting alone, never by
    the cyclic collector — runs create one per core occupancy and NIC
    transmit.
    """

    __slots__ = ("resource", "granted", "released", "_callbacks")

    def __init__(self, resource: "Resource") -> None:
        self.resource = resource
        self.granted = False
        self.released = False
        #: waiters subscribed before the grant (allocated on first use)
        self._callbacks: Optional[List[Any]] = None

    def subscribe(self, sim: Simulator, callback) -> None:
        if sim is not self.resource.sim:
            raise SimulationError("waiting on an event from another simulator")
        if self.granted:
            sim.schedule(0.0, callback, self)
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def _grant(self) -> None:
        self.granted = True
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            schedule = self.resource.sim.schedule
            for cb in callbacks:
                schedule(0.0, cb, self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request (e.g. a timed-out waiter)."""
        self.resource._cancel(self)


class Resource:
    """A counted resource with deterministic FIFO admission.

    ``capacity`` slots; excess requests queue in arrival order.  The grant
    happens *inline* at release time (not deferred), so utilization
    accounting sees no artificial gaps — important when asserting that a
    core is 100 % busy during serialized PIO copies (paper Fig. 4a).
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiting: Deque[ResourceRequest] = deque()

    def __repr__(self) -> str:
        return (
            f"<Resource {self.name} {self.in_use}/{self.capacity}"
            f" (+{len(self._waiting)} queued)>"
        )

    @property
    def queued(self) -> int:
        return len(self._waiting)

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def request(self) -> ResourceRequest:
        """Claim a slot; the returned request is waitable."""
        req = ResourceRequest(self)
        if self.in_use < self.capacity:
            self.in_use += 1
            req.granted = True  # no waiter can have subscribed yet
        else:
            self._waiting.append(req)
        return req

    def release(self, req: ResourceRequest) -> None:
        """Return a granted slot; the next FIFO waiter (if any) is granted."""
        if not req.granted:
            raise SimulationError(f"releasing ungranted request on {self.name}")
        if req.released:
            raise SimulationError(f"double release on {self.name}")
        req.released = True
        if self._waiting:
            self._waiting.popleft()._grant()
        else:
            self.in_use -= 1

    def _cancel(self, req: ResourceRequest) -> None:
        if req.granted:
            raise SimulationError("cannot cancel a granted request; release it")
        try:
            self._waiting.remove(req)
        except ValueError:
            raise SimulationError("cancelling a request not queued here") from None
