"""Cluster assembly: nodes, rails, sampling, engines — one builder call.

:class:`ClusterBuilder` wires the whole stack in the right order:
machines → NICs/wires → sampling (once per technology) → engines with the
chosen strategy.  :meth:`ClusterBuilder.paper_testbed` reproduces the
paper's evaluation platform: two dual dual-core Opteron nodes joined by a
Myri-10G rail and a Quadrics rail (§IV).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.api.config import SECTIONS
from repro.core.calibration import CalibrationController, install_calibration
from repro.core.engine import NmadEngine
from repro.core.invariants import InvariantMonitor, InvariantViolation
from repro.core.sampling import NetworkSampler, ProfileStore  # noqa: F401 (re-export)
from repro.core.strategies import Strategy, make_strategy
from repro.faults import FaultInjector, FaultSchedule, install_faults
from repro.hardware.machine import Machine
from repro.hardware.topology import CpuTopology, Fabric
from repro.networks.drivers.base import Driver
from repro.networks.drivers import make_driver
from repro.networks.nic import Nic
from repro.networks.wire import Wire
from repro.obs import NULL_OBS, Observability
from repro.simtime import Simulator
from repro.util.errors import ConfigurationError

StrategySpec = Union[str, Strategy, Callable[[], Strategy]]

#: every section's normalized value when the builder does not set it
_DEFAULTS = {section: normalize(None) for section, normalize in SECTIONS.items()}


@dataclass(frozen=True)
class RunResult:
    """What one :meth:`Cluster.run` call accomplished.

    Floats transparently to the final clock value, so code written
    against the old ``run() -> float`` contract keeps working via
    ``float(result)`` / format strings.
    """

    elapsed: float          #: simulated clock (µs) when the run stopped
    events_processed: int   #: events executed during this call
    faults_fired: int       #: fault actions injected so far (cumulative)

    def __float__(self) -> float:
        return self.elapsed

    def __repr__(self) -> str:
        return (
            f"<RunResult t={self.elapsed:.3f}us events={self.events_processed}"
            f" faults={self.faults_fired}>"
        )


def _resolve_strategy(spec: StrategySpec) -> Strategy:
    if isinstance(spec, Strategy):
        # A strategy instance may be given once but serve several nodes;
        # every engine needs its own (strategies hold per-engine state),
        # so hand out detached shallow copies.
        clone = copy.copy(spec)
        clone.engine = None
        return clone
    if isinstance(spec, str):
        return make_strategy(spec)
    return spec()


class Cluster:
    """A built cluster: simulator + machines + one engine per node."""

    def __init__(
        self,
        sim: Simulator,
        machines: Dict[str, Machine],
        engines: Dict[str, NmadEngine],
        profiles: Optional[ProfileStore],
    ) -> None:
        self.sim = sim
        self.machines = machines
        self.engines = engines
        self.profiles = profiles
        #: armed by :func:`repro.faults.install_faults` (None = no faults)
        self.fault_injector: Optional[FaultInjector] = None
        #: cluster-wide observability hub (NULL_OBS = disabled, the default)
        self.obs: Observability = NULL_OBS
        #: cluster-wide invariant monitor (None = checking off, the default)
        self.invariants: Optional[InvariantMonitor] = None
        #: closed-loop calibration controller (None = drift defense off,
        #: the default; see docs/calibration.md)
        self.calibration: Optional[Any] = None
        #: the declarative description this cluster was built from, when
        #: it came through :meth:`ClusterBuilder.fabric` (as
        #: ``paper_testbed`` and ``MpiWorld.create`` do; None otherwise)
        self.fabric: Optional[Fabric] = None
        #: default collective-algorithm overrides for MPI worlds wrapping
        #: this cluster (set via :meth:`ClusterBuilder.collectives`)
        self.collectives: Dict[str, str] = {}

    def __repr__(self) -> str:
        return f"<Cluster nodes={sorted(self.machines)}>"

    def engine(self, node: str) -> NmadEngine:
        try:
            return self.engines[node]
        except KeyError:
            raise ConfigurationError(
                f"no node {node!r}; have {sorted(self.engines)}"
            ) from None

    def session(self, node: str) -> "Session":
        from repro.api.session import Session

        return Session(self.engine(node))

    def sessions(self, *nodes: str) -> Tuple["Session", ...]:
        """Sessions for the named nodes — or every node, sorted, when
        called with no arguments: ``s0, s1 = cluster.sessions()``."""
        names = nodes if nodes else tuple(sorted(self.engines))
        return tuple(self.session(name) for name in names)

    def run(self, until: Optional[float] = None) -> RunResult:
        """Advance the simulation (drain, or up to ``until`` µs).

        Returns a :class:`RunResult`; ``float(result)`` is the final
        clock value, matching the historical return.
        """
        before = self.sim.events_processed
        elapsed = self.sim.run(until=until)
        return RunResult(
            elapsed=elapsed,
            events_processed=self.sim.events_processed - before,
            faults_fired=(
                self.fault_injector.faults_fired if self.fault_injector else 0
            ),
        )

    def resample(
        self,
        sampler: Optional["NetworkSampler"] = None,
        rail: Optional[str] = None,
        blend: Optional[float] = None,
        repetitions: int = 1,
    ) -> ProfileStore:
        """Re-run the §III-C sampling pass and swap fresh estimators into
        every engine.

        The paper samples once at launch; ablation A8 shows how much a
        silently degraded rail costs under stale profiles.  Two modes:

        * ``resample()`` — re-measure **every** technology on a pristine
          private testbed and replace all estimators (the historical
          behaviour; use after changing driver profile overrides).
        * ``resample(rail=...)`` — the calibration drift loop's online
          re-sample: measure **one** suspect rail with an
          :class:`~repro.core.sampling.OnlineSampler` that mirrors the
          live NIC's silent degradation onto the probes, then blend the
          fresh curve into the existing estimator (``blend`` weight,
          default 0.5; ``1.0`` replaces outright).  ``rail`` is either a
          qualified NIC name (``"node0.myri10g0"``) or a technology name
          (``"myri10g"`` — the slowest-looking NIC of that technology is
          used as the template).  The ping-pong runs on a *private*
          simulator, so in-flight traffic is quiesced, not disturbed.

        Either way the engines' predictors are rebuilt, which also
        invalidates plan caches (they are keyed per predictor instance).
        """
        from repro.core.prediction import CompletionPredictor
        from repro.core.sampling import OnlineSampler

        if rail is None:
            drivers = {
                nic.driver.technology: nic.driver
                for machine in self.machines.values()
                for nic in machine.nics
            }
            fresh = ProfileStore.sample_drivers(drivers.values(), sampler=sampler)
            self.profiles = fresh
        else:
            nic = self._resolve_rail(rail)
            if self.profiles is None:
                raise ConfigurationError(
                    "resample(rail=...) needs launch-time profiles to blend "
                    "into; build with sampling enabled"
                )
            if sampler is None:
                sampler = OnlineSampler(nic, repetitions=repetitions)
            tech = nic.driver.technology
            fresh_est = sampler.sample(nic.driver).to_estimator()
            weight = 0.5 if blend is None else blend
            old = self.profiles.estimators.get(tech)
            # Copy-on-write: the store may be shared (e.g. the cached
            # default_profiles), so never mutate it in place.
            store = ProfileStore(self.profiles.estimators)
            store.estimators[tech] = (
                fresh_est if old is None or weight >= 1.0
                else old.blend(fresh_est, weight)
            )
            self.profiles = fresh = store
        for engine in self.engines.values():
            engine.predictor = CompletionPredictor(fresh.estimators)
            engine.predictor.bind_obs(engine.obs, engine.machine.name)
        return fresh

    def _resolve_rail(self, rail: str) -> Nic:
        """Map ``rail`` to a live NIC: exact qualified name first, else
        the worst-degraded NIC of that technology (ties by name)."""
        nics = [
            nic
            for machine in self.machines.values()
            for nic in machine.nics
        ]
        for nic in nics:
            if nic.qualified_name == rail:
                return nic
        candidates = [n for n in nics if n.driver.technology == rail]
        if not candidates:
            have = sorted({n.qualified_name for n in nics})
            raise ConfigurationError(
                f"no rail {rail!r}; have {have} "
                f"(or a technology name from {sorted({n.driver.technology for n in nics})})"
            )
        return min(
            candidates, key=lambda n: (n.silent_bw_factor, n.qualified_name)
        )

    # ------------------------------------------------------------------ #
    # observability front-door (see docs/observability.md)
    # ------------------------------------------------------------------ #

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Name-sorted counters/gauges/histograms at the current instant.

        Gauges (utilization, queue depths, predictor cache rates) are
        refreshed from the live cluster before snapshotting; counters and
        histograms accumulate as the simulation runs.
        """
        self.obs.sample_cluster(self)
        return self.obs.metrics.snapshot()

    def accuracy_snapshot(self) -> Dict[str, Any]:
        """Predicted-vs-actual transfer-time statistics (see
        :class:`repro.obs.PredictionAccuracy`)."""
        return self.obs.accuracy.snapshot()

    def accuracy_report(self) -> str:
        """Human-readable per-rail/per-size prediction-error table."""
        return self.obs.accuracy.report()

    def calibration_snapshot(self) -> Dict[str, Any]:
        """JSON-able drift-defense state (observations, drift events,
        resamples, per-rail confidence, ladder transitions).  Raises when
        calibration was not enabled at build time."""
        if self.calibration is None:
            raise ConfigurationError(
                "calibration is off; build with ClusterBuilder.calibration()"
            )
        return self.calibration.snapshot()

    def calibration_report(self) -> str:
        """Human-readable drift-defense summary (see docs/calibration.md)."""
        if self.calibration is None:
            raise ConfigurationError(
                "calibration is off; build with ClusterBuilder.calibration()"
            )
        return self.calibration.report()

    def chrome_trace(self) -> Dict[str, Any]:
        """The run so far as a Chrome ``trace_event`` JSON object."""
        from repro.obs.chrome_export import chrome_trace

        self.obs.collectives.flush_to_tracer(self.obs.tracer)
        return chrome_trace(self.obs.tracer)

    def export_chrome_trace(self, target) -> int:
        """Write the Chrome trace to ``target`` (path or file object);
        returns the number of events written.  Load the file in
        ``chrome://tracing`` or https://ui.perfetto.dev."""
        from repro.obs.chrome_export import export_chrome_trace

        self.obs.collectives.flush_to_tracer(self.obs.tracer)
        return export_chrome_trace(self.obs.tracer, target)

    # ------------------------------------------------------------------ #
    # drain accounting (see docs/chaos.md)
    # ------------------------------------------------------------------ #

    def drain_report(self) -> List[str]:
        """Diagnoses for every send still non-terminal, across all nodes.

        Empty after a healthy drain; each entry names a message that
        neither completed nor degraded — a silent hang made visible.
        """
        out: List[str] = []
        for name in sorted(self.engines):
            out.extend(self.engines[name].stuck_messages())
        return out

    def check_drain(self) -> None:
        """Audit the drained cluster: every send terminal, NICs quiet.

        Routes through the invariant monitor when one is attached (the
        full ``drain-no-stuck`` / ``nic-tx-sanity`` audit, with scenario
        context in the violation); otherwise performs the stuck-message
        check directly.  Raises :class:`InvariantViolation` on failure.
        """
        try:
            if self.invariants is not None:
                self.invariants.check_drain(self)
                return
            stuck = self.drain_report()
            if stuck:
                raise InvariantViolation(
                    "drain-no-stuck",
                    f"{len(stuck)} message(s) non-terminal at drain: "
                    + "; ".join(stuck[:6])
                    + ("; ..." if len(stuck) > 6 else ""),
                    self.sim.now,
                )
        except InvariantViolation as exc:
            # Post-mortem before propagating: the flight recorder's ring
            # holds the events leading up to the violation.
            self.obs.flight.trigger(
                "invariant-violation",
                self.sim.now,
                detail={"invariant": exc.invariant, "message": exc.detail},
            )
            raise

    def drain_stuck(self) -> List[Any]:
        """Degrade every still-pending send on every node (see
        :meth:`NmadEngine.drain_stuck`); returns the drained messages."""
        drained: List[Any] = []
        for name in sorted(self.engines):
            drained.extend(self.engines[name].drain_stuck())
        if drained:
            self.obs.flight.trigger(
                "drain-stuck",
                self.sim.now,
                detail={
                    "drained": len(drained),
                    "msg_ids": [m.msg_id for m in drained[:16]],
                },
            )
        return drained


class ClusterBuilder:
    """Fluent builder for simulated multirail clusters.

    Every section method goes through the section's normalizer in
    :data:`repro.api.config.SECTIONS` — the same one a config file's
    section goes through — and stores the normalized value.
    """

    def __init__(self, strategy: StrategySpec = "hetero_split") -> None:
        self.sim = Simulator()
        self._machines: Dict[str, Machine] = {}
        self._rails: List[Tuple[str, str, Driver]] = []
        #: (nodes, driver, latency, stage spec) — spec {} = flat switch,
        #: {"pod_size": ..., "spines": ..., "adaptive": ...} = fat tree
        self._switches: List[
            Tuple[Tuple[str, ...], Driver, float, Dict[str, Any]]
        ] = []
        self._fabric: Optional[Fabric] = None
        #: normalized description sections, by name
        self._sections: Dict[str, Any] = dict(_DEFAULTS)
        self._set("strategy", strategy)

    def _set(self, section: str, value: Any) -> "ClusterBuilder":
        self._sections[section] = SECTIONS[section](value)
        return self

    def _merge(self, section: str, entries: Dict[str, Any]) -> "ClusterBuilder":
        return self._set(section, {**self._sections[section], **entries})

    # ------------------------------------------------------------------ #
    # topology
    # ------------------------------------------------------------------ #

    def add_node(
        self,
        name: str,
        topology: Optional[CpuTopology] = None,
        memcpy_rate: float = 3000.0,
    ) -> "ClusterBuilder":
        if name in self._machines:
            raise ConfigurationError(f"duplicate node {name!r}")
        self._machines[name] = Machine(
            self.sim, name, topology=topology, memcpy_rate=memcpy_rate
        )
        return self

    def _driver(
        self,
        driver: Union[str, Driver],
        nodes: Sequence[str],
        overrides: Mapping[str, Any],
    ) -> Driver:
        """Resolve a rail's driver and check its nodes were added."""
        if isinstance(driver, str):
            driver = make_driver(driver, **overrides)
        elif overrides:
            raise ConfigurationError(
                "driver overrides only apply to registry-name rails"
            )
        for node in nodes:
            if node not in self._machines:
                raise ConfigurationError(f"unknown node {node!r}; add_node first")
        return driver

    def add_rail(
        self,
        driver: Union[str, Driver],
        node_a: str,
        node_b: str,
        **driver_overrides,
    ) -> "ClusterBuilder":
        """Join two nodes with one rail of the given technology."""
        driver = self._driver(driver, (node_a, node_b), driver_overrides)
        self._rails.append((node_a, node_b, driver))
        return self

    def add_switch(
        self,
        driver: Union[str, Driver],
        nodes: List[str],
        switch_latency: float = 0.3,
        **driver_overrides,
    ) -> "ClusterBuilder":
        """Join several nodes through one shared switch (one NIC each).

        Unlike :meth:`add_rail`'s dedicated point-to-point links, flows
        through a switch contend for the destination's port — the incast
        behaviour of real (e.g. T2K-style) fabrics.
        """
        if len(set(nodes)) < 2:
            raise ConfigurationError("a switch needs at least two distinct nodes")
        driver = self._driver(driver, nodes, driver_overrides)
        self._switches.append((tuple(nodes), driver, switch_latency, {}))
        return self

    def fabric(self, fabric: Union[Fabric, Dict[str, Any]]) -> "ClusterBuilder":
        """Materialize a :class:`~repro.hardware.topology.Fabric`.

        Adds every named node and wires each :class:`FabricRail` as a
        full wire mesh, one flat switch, or one two-stage fat tree
        (``pod_size`` nodes per edge pod, inter-pod packets serialized on
        one of ``spines`` uplinks — see
        :class:`repro.networks.switch.FatTreeSwitch`).  Wire-mesh NICs
        are numbered pair-major: every wire rail of a node pair before
        the next pair.  The built :class:`Cluster` remembers the
        description as ``cluster.fabric`` (``cli topology`` and
        :meth:`MpiWorld.from_cluster` read it).
        """
        if isinstance(fabric, dict):
            fabric = Fabric.from_dict(fabric)
        if not isinstance(fabric, Fabric):
            raise ConfigurationError(
                f"fabric() wants a Fabric or its dict form, got {fabric!r}"
            )
        for name in fabric.nodes:
            self.add_node(name)
        nodes = fabric.nodes
        wires = [rail for rail in fabric.rails if rail.kind == "wire"]
        for i, node_a in enumerate(nodes):
            for node_b in nodes[i + 1:]:
                for rail in wires:
                    self.add_rail(
                        rail.technology, node_a, node_b, **rail.overrides
                    )
        for rail in fabric.rails:
            if rail.kind == "wire":
                continue
            stages: Dict[str, Any] = {}
            if rail.kind == "fat_tree":
                stages = {
                    "pod_size": fabric.pod_size_of(rail),
                    "spines": rail.spines,
                    "adaptive": rail.adaptive,
                }
            driver = self._driver(rail.technology, nodes, rail.overrides)
            self._switches.append((nodes, driver, rail.switch_latency, stages))
        self._fabric = fabric
        return self

    # ------------------------------------------------------------------ #
    # description sections (repro.api.config.SECTIONS)
    # ------------------------------------------------------------------ #

    def collectives(self, overrides: Dict[str, str]) -> "ClusterBuilder":
        """Default collective-algorithm choices for MPI worlds over this
        cluster (``{"alltoall": "ring", ...}``; validated now — unknown
        names raise with the valid choices listed)."""
        return self._set("collectives", overrides)

    def strategy_for(self, node: str, strategy: StrategySpec) -> "ClusterBuilder":
        """Override the strategy for one node (defaults apply elsewhere);
        :meth:`build` rejects a node the cluster does not have."""
        return self._merge("per_node_strategy", {node: strategy})

    def sampling(
        self,
        enabled: bool = True,
        sampler: Optional[NetworkSampler] = None,
        profiles: Optional[ProfileStore] = None,
    ) -> "ClusterBuilder":
        """Control the §III-C sampling pass.

        ``profiles`` short-circuits measurement with pre-recorded tables
        (the real system loads its sampling files at launch, too).
        """
        spec = {"sampler": sampler, "profiles": profiles}
        return self._set("sampling", spec if enabled else False)

    def app_core(self, core_id: int) -> "ClusterBuilder":
        """The core the application runs on, in ``[0, cores)`` of every
        node (checked at :meth:`build`)."""
        return self._merge("options", {"app_core": core_id})

    def multicore_rx(self, enabled: bool = True) -> "ClusterBuilder":
        """Let receive-side progression spill to idle cores (paper's
        future-work improvement; ablation A7 quantifies it)."""
        return self._merge("options", {"multicore_rx": enabled})

    def faults(
        self, schedule: Union[FaultSchedule, Dict[str, Any], None]
    ) -> "ClusterBuilder":
        """Arm a fault schedule when the cluster is built.

        Accepts a :class:`~repro.faults.FaultSchedule`, its ``to_dict``
        form (the config-file representation), or ``None`` to clear a
        previously set schedule.
        """
        return self._set("faults", schedule)

    def resilience(self, **knobs) -> "ClusterBuilder":
        """Configure every engine's timeout/retry behaviour.

        ``knobs`` are :class:`~repro.core.engine.NmadEngine`'s
        ``timeout`` (the per-message watchdog; unset keeps it off — the
        default, and the bit-identical healthy path), ``max_retries``,
        ``backoff_base``, ``backoff_factor`` and ``backoff_max``.  Time
        values accept ``"200us"`` / ``"1.5ms"`` strings.
        """
        return self._set("resilience", knobs)

    def observability(self, enabled: bool = True, **knobs) -> "ClusterBuilder":
        """Attach a cluster-wide :class:`repro.obs.Observability` hub.

        Off by default — and the disabled path is bit-identical to a
        build without this call (all hooks are record-only and guarded).
        ``knobs`` are the hub's keywords: ``trace``/``metrics``/
        ``accuracy``/``flight``/``collectives`` toggle the telemetry
        planes individually; ``trace_limit`` bounds the trace event
        buffer (oldest runs keep, newest drop, counted deterministically);
        ``flight_capacity`` sizes the flight recorder's event ring (see
        :mod:`repro.obs.flight`).
        """
        return self._set("observability", knobs if enabled else False)

    def invariants(self, enabled: bool = True, **knobs) -> "ClusterBuilder":
        """Attach a cluster-wide :class:`repro.core.invariants.InvariantMonitor`.

        Off by default — and, like :meth:`observability`, the disabled
        path is bit-identical to a build without this call: the monitor
        is purely passive (it reads state and raises, never schedules
        events), so enabling it moves no simulated timestamp either.
        ``knobs``: ``trail_depth`` bounds the violation-report
        observation trail; ``strict_checksums`` toggles per-chunk
        wire-checksum verification.
        """
        return self._set("invariants", knobs if enabled else False)

    def calibration(self, enabled: bool = True, **knobs) -> "ClusterBuilder":
        """Attach the closed-loop drift defense (docs/calibration.md).

        Off by default — and, like :meth:`observability`, the disabled
        path is bit-identical to a build without this call.  *Unlike*
        observability, an **enabled** controller deliberately changes
        planning: it watches per-rail prediction error, re-samples
        drifting rails online, and degrades the split strategy along the
        FULL → PARTIAL → SINGLE fallback ladder while confidence is low.

        ``knobs`` (:data:`repro.core.calibration.KNOB_NAMES`) are
        forwarded to
        :class:`repro.core.calibration.CalibrationController` (``blend``,
        ``auto_resample``, ``clamp_frac``, ``resample_repetitions``,
        detector knobs such as ``drift_threshold``/``cooldown``, and
        ``ladder_knobs``).
        """
        return self._set("calibration", knobs if enabled else False)

    # ------------------------------------------------------------------ #
    # build
    # ------------------------------------------------------------------ #

    def build(self) -> Cluster:
        from repro.networks.switch import FatTreeSwitch, Switch

        if not self._machines:
            raise ConfigurationError("cluster has no nodes")
        if not self._rails and not self._switches:
            raise ConfigurationError("cluster has no rails")
        spec = self._sections
        app_core = spec["options"]["app_core"]
        for name, machine in self._machines.items():
            if not 0 <= app_core < len(machine.cores):
                raise ConfigurationError(
                    f"app_core {app_core} outside [0, {len(machine.cores)}) "
                    f"on node {name!r}"
                )
        unknown = sorted(set(spec["per_node_strategy"]) - set(self._machines))
        if unknown:
            raise ConfigurationError(
                f"per_node_strategy names unknown node(s) {unknown}; "
                f"have {sorted(self._machines)}"
            )
        rail_count: Dict[str, int] = {name: 0 for name in self._machines}
        for node_a, node_b, driver in self._rails:
            idx_a, idx_b = rail_count[node_a], rail_count[node_b]
            nic_a = Nic(
                self._machines[node_a], driver, name=f"{driver.technology}{idx_a}"
            )
            nic_b = Nic(
                self._machines[node_b], driver, name=f"{driver.technology}{idx_b}"
            )
            Wire(nic_a, nic_b)
            rail_count[node_a] += 1
            rail_count[node_b] += 1
        for s_idx, (nodes, driver, latency, stages) in enumerate(self._switches):
            if stages:
                switch: Switch = FatTreeSwitch(
                    name=f"fattree{s_idx}",
                    switch_latency=latency,
                    pod_size=stages["pod_size"],
                    spines=stages["spines"],
                    adaptive=stages["adaptive"],
                )
            else:
                switch = Switch(name=f"switch{s_idx}", switch_latency=latency)
            for node in nodes:
                idx = rail_count[node]
                switch.attach(
                    Nic(
                        self._machines[node],
                        driver,
                        name=f"{driver.technology}{idx}",
                    )
                )
                rail_count[node] += 1

        sampling = spec["sampling"]
        profiles = None if sampling is None else sampling.get("profiles")
        if sampling is not None and profiles is None:
            drivers = [d for _, _, d in self._rails]
            drivers += [d for _, d, _, _ in self._switches]
            profiles = ProfileStore.sample_drivers(
                drivers, sampler=sampling.get("sampler")
            )

        obs = (
            Observability(**spec["observability"])
            if spec["observability"] is not None
            else NULL_OBS
        )
        inv = (
            InvariantMonitor(**spec["invariants"])
            if spec["invariants"] is not None
            else None
        )
        engines: Dict[str, NmadEngine] = {}
        for name, machine in self._machines.items():
            strategy = spec["per_node_strategy"].get(name, spec["strategy"])
            engines[name] = NmadEngine(
                machine,
                strategy=_resolve_strategy(strategy),
                estimators=profiles.estimators if profiles else None,
                app_core_id=app_core,
                multicore_rx=spec["options"]["multicore_rx"],
                obs=obs,
                invariants=inv,
                **(spec["resilience"] or {}),
            )
        cluster = Cluster(self.sim, self._machines, engines, profiles)
        cluster.obs = obs
        cluster.invariants = inv
        cluster.fabric = self._fabric
        cluster.collectives = dict(spec["collectives"])
        if spec["calibration"] is not None:
            install_calibration(
                cluster, CalibrationController(**spec["calibration"])
            )
        if spec["faults"] is not None:
            # install_faults reads cluster.invariants, set just above, so
            # the injector's on_fault hook sees the same monitor.
            install_faults(cluster, spec["faults"])
        return cluster

    # ------------------------------------------------------------------ #
    # canned testbeds
    # ------------------------------------------------------------------ #

    @classmethod
    def paper_testbed(
        cls,
        strategy: StrategySpec = "hetero_split",
        rails: Tuple[str, ...] = ("myri10g", "quadrics"),
        sample: bool = True,
    ) -> "ClusterBuilder":
        """The §IV platform: two dual dual-core nodes, Myri-10G + Quadrics.

        ``rails`` can be widened (e.g. ``("myri10g", "quadrics",
        "infiniband")``) for the n-rail ablations.
        """
        return (
            cls(strategy=strategy)
            .fabric(Fabric.paper_testbed(rails))
            .sampling(enabled=sample)
        )
