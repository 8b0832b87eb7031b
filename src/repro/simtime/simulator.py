"""The discrete-event simulator: one virtual clock, one event queue.

Time is ``float`` microseconds.  The simulator is single-threaded and
deterministic: same inputs, same event trace, same results — which is what
lets the test suite assert exact chunk completion times for the paper's
split-ratio experiments.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional, TYPE_CHECKING

from repro.simtime.events import EventQueue, ScheduledEvent
from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simtime.process import Process


class Simulator:
    """Deterministic discrete-event simulator with a µs virtual clock.

    Usage (callback style)::

        sim = Simulator()
        sim.schedule(5.0, print, "fires at t=5us")
        sim.run()

    Usage (process style)::

        def pinger(sim):
            yield Timeout(3.0)
            print("t =", sim.now)
        sim.spawn(pinger(sim))
        sim.run()
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now: float = float(start_time)
        self._queue = EventQueue()
        # Bound once: schedule/schedule_at are the hottest calls in every
        # run, and the queue lives as long as the simulator.
        self._push = self._queue.push
        self._running = False
        self._processes: int = 0  # live process count, for diagnostics
        #: total events executed over this simulator's lifetime
        self.events_processed: int = 0

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` µs from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} us in the past")
        return self._push(self.now + delay, callback, args, priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        return self._push(time, callback, args, priority)

    def cancel(self, ev: ScheduledEvent) -> None:
        """Cancel a pending event (no-op if it already fired)."""
        self._queue.cancel(ev)

    # ------------------------------------------------------------------ #
    # processes
    # ------------------------------------------------------------------ #

    def spawn(self, generator: Iterator[Any], name: str = "") -> "Process":
        """Start a generator coroutine as a simulation process.

        The process begins executing at the *current* instant but only
        after the caller returns to the event loop (it is scheduled, not
        called inline), matching SimPy semantics and avoiding reentrancy
        surprises in strategy code.
        """
        from repro.simtime.process import Process

        return Process(self, generator, name=name)

    # ------------------------------------------------------------------ #
    # the event loop
    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """Run the single earliest event.  Returns False when queue empty."""
        ev = self._queue.pop()
        if ev is None:
            return False
        if ev.time < self.now:
            raise SimulationError(
                f"clock would move backwards: {self.now} -> {ev.time}"
            )
        self.now = ev.time
        self.events_processed += 1
        ev.callback(*ev.args)
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains or the clock passes ``until``.

        Returns the final value of :attr:`now`.  With ``until`` given, the
        clock is advanced *to* ``until`` even if the last event fired
        earlier (so bandwidth computations over a fixed window are exact).
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        # One pop-with-bound per iteration: the naive peek_time() + step()
        # pair costs two heap accesses (and two cancelled-head drains) per
        # event; pop_due folds them into one.
        pop_due = self._queue.pop_due
        now = self.now
        n = 0
        try:
            while (ev := pop_due(until)) is not None:
                t = ev.time
                if t < now:
                    raise SimulationError(
                        f"clock would move backwards: {now} -> {t}"
                    )
                now = self.now = t
                n += 1
                ev.callback(*ev.args)
        finally:
            self._running = False
            self.events_processed += n
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def run_until_idle(self, max_events: int = 50_000_000) -> float:
        """Drain the queue with a safety valve against runaway loops."""
        n = 0
        while self.step():
            n += 1
            if n >= max_events:
                raise SimulationError(
                    f"simulation did not quiesce within {max_events} events"
                )
        return self.now

    @property
    def pending_events(self) -> int:
        """Number of live events still queued (diagnostic)."""
        return len(self._queue)
