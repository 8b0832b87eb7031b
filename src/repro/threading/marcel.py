"""The Marcel scheduler: tasklet placement and the preemption protocol.

One :class:`MarcelScheduler` per machine.  It owns the per-core view of
running compute threads (the information PIOMan asks for, paper §III-A:
"the MARCEL thread scheduler ... provides information on the running
threads and the available CPUs") and executes tasklets on target cores,
charging the topology's signalling costs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hardware.core import Core
from repro.hardware.machine import Machine
from repro.simtime import SimEvent, Timeout
from repro.simtime.process import Waitable
from repro.threading.compute import ComputeThread
from repro.threading.tasklet import Tasklet, TaskletState
from repro.util.errors import SchedulingError


class MarcelScheduler:
    """Per-machine tasklet scheduler and thread registry."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.sim = machine.sim
        self._threads: Dict[int, ComputeThread] = {}  # core_id -> thread
        self.tasklets_run: int = 0
        self.preemptions: int = 0

    def __repr__(self) -> str:
        return (
            f"<MarcelScheduler {self.machine.name}: "
            f"{len(self._threads)} threads, {self.tasklets_run} tasklets run>"
        )

    # ------------------------------------------------------------------ #
    # thread registry (consulted by PIOMan)
    # ------------------------------------------------------------------ #

    def spawn_compute(
        self,
        core: Core,
        work_us: Optional[float] = None,
        preemptable: bool = True,
        name: str = "compute",
    ) -> ComputeThread:
        """Start an application compute thread on ``core``."""
        if core.core_id in self._threads:
            raise SchedulingError(
                f"core {core.core_id} already runs "
                f"{self._threads[core.core_id].name!r}"
            )
        return ComputeThread(self, core, work_us, preemptable, name)

    def thread_on(self, core: Core) -> Optional[ComputeThread]:
        return self._threads.get(core.core_id)

    def idle_cores(self, exclude: Optional[Core] = None) -> List[Core]:
        """Cores with no compute thread and nothing on their run queue."""
        return [
            c
            for c in self.machine.idle_cores(exclude=exclude)
            if c.core_id not in self._threads
        ]

    def preemptable_cores(self, exclude: Optional[Core] = None) -> List[Core]:
        """Cores running a compute thread that accepts preemption."""
        return [
            c
            for c in self.machine.cores
            if c is not exclude
            and (t := self._threads.get(c.core_id)) is not None
            and t.preemptable
            and not t.done
            and t.on_core  # mid-preemption threads can't be preempted again
        ]

    # ------------------------------------------------------------------ #
    # tasklet execution
    # ------------------------------------------------------------------ #

    def schedule_tasklet(
        self,
        tasklet: Tasklet,
        target: Core,
        from_core: Optional[Core] = None,
    ) -> SimEvent:
        """Run ``tasklet`` on ``target``, signalled from ``from_core``.

        Charges ``topology.signal_cost`` (3 µs idle / 6 µs preempt by
        default) between the signal and the moment the body may start —
        the TO of the paper's equation (1).  Returns an event triggered
        when the body finished.

        If the target runs a preemptable compute thread, the thread is
        signalled off the core, the tasklet runs, then the thread resumes
        — the full §III-D protocol.
        """
        if tasklet.state is not TaskletState.PENDING:
            raise SchedulingError(f"{tasklet!r} was already scheduled")
        if target not in self.machine.cores:
            raise SchedulingError(
                f"core {target.core_id} does not belong to {self.machine.name}"
            )
        victim = self._threads.get(target.core_id)
        if victim is not None and not victim.preemptable:
            raise SchedulingError(
                f"core {target.core_id} runs non-preemptable {victim.name!r}"
            )
        tasklet.state = TaskletState.SCHEDULED
        tasklet.t_created = tasklet.t_created or self.sim.now
        tasklet.t_signalled = self.sim.now
        tasklet.core_id = target.core_id
        done = SimEvent(self.sim, "{}.done", tasklet.name)
        if from_core is not None:
            cost = self.machine.topology.signal_cost(
                from_core.core_id, target.core_id, preempt=victim is not None
            )
        else:
            # No originating core: a hardware interrupt (PIOMan's blocking
            # -call path).  Free on an idle core; the preemption cost when
            # a computing thread must be signalled off.
            cost = (
                self.machine.topology.preempt_cost_us if victim is not None else 0.0
            )
        self.sim.spawn(
            self._run_tasklet(tasklet, target, victim, cost, done),
            name=f"tasklet{tasklet.tasklet_id}@{self.machine.name}",
        )
        return done

    def _run_tasklet(self, tasklet, target, victim, cost, done):
        if victim is not None:
            # The victim may be parked mid-preemption by a concurrent
            # tasklet; wait until it is back on its core (or gone) so the
            # preemption handshake is well-defined.
            while not victim.done and not victim.on_core:
                yield Timeout(0.5)
            if victim.done:
                victim = None
        if victim is not None:
            tasklet.preempted_someone = True
            self.preemptions += 1
            released = victim.preempt()
            yield released  # the thread's core slice is actually free now
        if cost > 0:
            yield Timeout(cost)
        tasklet.state = TaskletState.RUNNING
        tasklet.t_started = self.sim.now
        if tasklet.cpu_cost > 0:
            yield from target.occupy(tasklet.cpu_cost, label=f"tasklet:{tasklet.name}")
        continuation = tasklet.body()
        if isinstance(continuation, Waitable):
            # The body started asynchronous work on this core (e.g. a NIC
            # submission whose PIO copy runs later); the tasklet — and in
            # particular the release of its preemption victim — must wait
            # for it, or the victim would retake the core and starve the
            # copy forever.
            yield continuation
        tasklet.state = TaskletState.DONE
        tasklet.t_finished = self.sim.now
        self.tasklets_run += 1
        if victim is not None and not victim.done:
            victim.resume()
        done.trigger(tasklet)

    # ------------------------------------------------------------------ #
    # ComputeThread registry hooks
    # ------------------------------------------------------------------ #

    def _register_thread(self, thread: ComputeThread) -> None:
        self._threads[thread.core.core_id] = thread

    def _unregister_thread(self, thread: ComputeThread) -> None:
        if self._threads.get(thread.core.core_id) is thread:
            del self._threads[thread.core.core_id]
