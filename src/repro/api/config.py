"""The cluster description: one section table behind every front door.

A cluster is described once — as a config dict / JSON file, as
:class:`~repro.api.cluster.ClusterBuilder` calls, or as
:meth:`~repro.api.mpi.MpiWorld.create` keywords — and every form goes
through the same per-section normalizer in :data:`SECTIONS`, so the
three accept and reject exactly the same things:

=====================  ==============================  =====================  ==================
section                builder                         config key             ``create`` kwarg
=====================  ==============================  =====================  ==================
topology               ``add_node``/``add_rail``/      ``nodes`` + ``rails``  ``n_ranks`` +
                       ``add_switch``/``fabric``       or ``fabric``          ``rails``/``fabric``
strategy               ``ClusterBuilder(strategy)``    ``strategy``           ``strategy``
per_node_strategy      ``strategy_for``                ``per_node_strategy``  —
options                ``app_core``/``multicore_rx``   ``options``            —
sampling               ``sampling``                    ``sampling``           ``profiles``
collectives            ``collectives``                 ``collectives``        ``collectives``
faults                 ``faults``                      ``faults``             —
resilience             ``resilience``                  ``resilience``         —
observability          ``observability``               ``observability``      ``observability``
invariants             ``invariants``                  ``invariants``         —
calibration            ``calibration``                 ``calibration``        —
=====================  ==============================  =====================  ==================

A config file looks like::

    {
      "version": 1,
      "strategy": "hetero_split",
      "nodes": [
        {"name": "node0", "sockets": 2, "cores_per_socket": 2},
        {"name": "node1", "sockets": 2, "cores_per_socket": 2}
      ],
      "rails": [
        {"driver": "myri10g",  "between": ["node0", "node1"]},
        {"driver": "quadrics", "between": ["node0", "node1"],
         "overrides": {"wire_latency": 1.5}}
      ],
      "options": {"multicore_rx": true, "app_core": 0},
      "per_node_strategy": {"node1": "greedy"},
      "sampling": {"profile_file": "profiles.json"},
      "faults": {"seed": 7, "events": [
        {"time": 150.0, "nic": "node0.myri10g0", "action": "down"},
        {"time": 650.0, "nic": "node0.myri10g0", "action": "up"}
      ]},
      "resilience": {"timeout": "200us", "max_retries": 8},
      "observability": {"trace": true, "metrics": true, "accuracy": true},
      "invariants": {"strict_checksums": true, "trail_depth": 64},
      "calibration": {"blend": 0.5, "drift_threshold": 0.15}
    }

Instead of ``nodes`` + ``rails``, a ``fabric`` section
(:meth:`repro.hardware.topology.Fabric.from_dict`) describes an N-node
testbed whose rails are ``"wire"`` meshes, ``"switch"`` es or
``"fat_tree"`` s, e.g. ``{"fabric": {"nodes": 2, "rails": [{"driver":
"myri10g", "kind": "wire"}]}, "collectives": {"alltoall": "ring"}}``.

``sampling``, ``resilience``, ``observability``, ``invariants`` and
``calibration`` take ``true``, ``false`` or a dict of knobs; the knob
names are those of the consumer (``Observability``,
``InvariantMonitor``, ``repro.core.calibration.KNOB_NAMES``, ...).
``faults`` takes a :meth:`~repro.faults.FaultSchedule.to_dict` schedule.
A ``null`` section means "absent".  Unknown keys anywhere — top level,
sections, ``nodes[]`` and ``rails[]`` entries — and unknown versions
raise :class:`ConfigurationError` listing the known ones, so typos never
pass silently.

``load_cluster(path_or_dict)`` returns a built :class:`Cluster`;
``builder_from_config`` stops one step earlier for callers that want to
tweak the builder programmatically.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Union

from repro.api.collectives import validate_overrides
from repro.core.calibration import KNOB_NAMES as CALIBRATION_KNOBS
from repro.core.engine import RESILIENCE_KNOBS
from repro.core.invariants import InvariantMonitor
from repro.core.sampling import ProfileStore
from repro.core.strategies import Strategy, strategy_registry
from repro.faults import FaultSchedule
from repro.hardware.topology import CpuTopology
from repro.obs import Observability
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.cluster import Cluster, ClusterBuilder

ConfigSource = Union[str, Path, Dict[str, Any]]

#: config schema versions this loader understands
_SUPPORTED_VERSIONS = {1}

_NODE_KEYS = frozenset(
    {"name", "sockets", "cores_per_socket", "signal_cost_us",
     "preempt_cost_us", "memcpy_rate"}
)
_RAIL_KEYS = frozenset({"driver", "between", "overrides"})
#: the ``options`` section: knob -> default
_OPTIONS = {"multicore_rx": False, "app_core": 0}


def _knobs(what: str, value: Any, known) -> Dict[str, Any]:
    """A copy of ``value``, which must be a dict with keys from ``known``."""
    if not isinstance(value, dict):
        raise ConfigurationError(
            f"'{what}' must be a dict of {sorted(known)}; got {value!r}"
        )
    unknown = value.keys() - known
    if unknown:
        raise ConfigurationError(
            f"unknown {what} keys {sorted(unknown)}; known: {sorted(known)}"
        )
    return dict(value)


def _switch(
    section: str,
    known,
    default: bool = False,
    finish: Callable[[Dict[str, Any]], Dict[str, Any]] = dict,
) -> Callable[[Any], Optional[Dict[str, Any]]]:
    """The normalizer of a ``true / false / {knob: value}`` section.

    Off (``false``, or absent unless ``default``) normalizes to ``None``;
    on is a knob dict (``true`` = ``{}``) checked against ``known`` and
    passed through ``finish``.
    """

    def normalize(value: Any) -> Optional[Dict[str, Any]]:
        if value is None:
            value = default
        if value is False:
            return None
        if value is True:
            value = {}
        elif not isinstance(value, dict):
            raise ConfigurationError(
                f"'{section}' must be true, false, or a dict of "
                f"{sorted(known)}; got {value!r}"
            )
        return finish(_knobs(section, value, known))

    return normalize


def _positive(*names: str) -> Callable[[Dict[str, Any]], Dict[str, Any]]:
    """Drop ``None`` values of the optional size knobs ``names``; reject
    the ones below 1."""

    def finish(spec: Dict[str, Any]) -> Dict[str, Any]:
        for name in names:
            if name in spec and spec[name] is None:
                del spec[name]
            elif spec.get(name, 1) < 1:
                raise ConfigurationError(
                    f"{name} must be positive, got {spec[name]}"
                )
        return spec

    return finish


def _keywords(cls: type, *skip: str) -> frozenset:
    return frozenset(inspect.signature(cls).parameters) - set(skip)


def _strategy(spec: Any) -> Any:
    if spec is None:
        return "hetero_split"
    if isinstance(spec, str):
        if spec.lower() not in strategy_registry:
            raise ConfigurationError(
                f"unknown strategy {spec!r}; known: {sorted(strategy_registry)}"
            )
    elif not (isinstance(spec, Strategy) or callable(spec)):
        raise ConfigurationError(
            f"a strategy is a registry name, a Strategy or a factory; "
            f"got {spec!r}"
        )
    return spec


def _per_node_strategy(value: Any) -> Dict[str, Any]:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigurationError(
            f"'per_node_strategy' must map node -> strategy; got {value!r}"
        )
    return {node: _strategy(spec) for node, spec in value.items()}


def _options(value: Any) -> Dict[str, Any]:
    given = _knobs("options", {} if value is None else value, _OPTIONS.keys())
    spec = {**_OPTIONS, **given}
    return {
        "multicore_rx": bool(spec["multicore_rx"]),
        "app_core": int(spec["app_core"]),
    }


def _sampling(spec: Dict[str, Any]) -> Dict[str, Any]:
    if "profile_file" in spec:
        spec["profiles"] = ProfileStore.load(spec.pop("profile_file"))
    profiles = spec.get("profiles")
    if profiles is not None and not isinstance(profiles, ProfileStore):
        raise ConfigurationError(
            f"sampling 'profiles' must be a ProfileStore, got {profiles!r}"
        )
    return spec


def _faults(value: Any) -> Optional[FaultSchedule]:
    if value is None or isinstance(value, FaultSchedule):
        return value
    if isinstance(value, dict):
        return FaultSchedule.from_dict(value)
    raise ConfigurationError(
        f"'faults' must be a FaultSchedule or its to_dict form; got {value!r}"
    )


#: section -> normalizer: takes the config-file form or the object form
#: the builder takes; returns the normalized value (``None`` in = absent)
#: or raises :class:`ConfigurationError`
SECTIONS: Dict[str, Callable[[Any], Any]] = {
    "strategy": _strategy,
    "per_node_strategy": _per_node_strategy,
    "options": _options,
    "sampling": _switch(
        "sampling",
        frozenset({"profile_file", "profiles", "sampler"}),
        default=True,
        finish=_sampling,
    ),
    "collectives": lambda value: validate_overrides(
        {} if value is None else value
    ),
    "faults": _faults,
    "resilience": _switch("resilience", RESILIENCE_KNOBS),
    "observability": _switch(
        "observability",
        _keywords(Observability, "enabled"),
        finish=_positive("trace_limit", "flight_capacity"),
    ),
    "invariants": _switch(
        "invariants",
        _keywords(InvariantMonitor),
        finish=_positive("trail_depth"),
    ),
    "calibration": _switch("calibration", CALIBRATION_KNOBS),
}

_TOP_LEVEL_KEYS = frozenset({"version", "nodes", "rails", "fabric", *SECTIONS})


def read_config(source: ConfigSource) -> Dict[str, Any]:
    """The config dict of ``source`` (a dict or a JSON file path), with
    its top-level keys and ``version`` checked; sections are not."""
    if isinstance(source, dict):
        config = source
    else:
        path = Path(source)
        try:
            config = json.loads(path.read_text())
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read cluster config {path}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigurationError(
                f"{path}: cluster config must be a JSON object, "
                f"not {type(config).__name__}"
            )
    unknown = set(config) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigurationError(
            f"unknown config keys {sorted(unknown)}; known: {sorted(_TOP_LEVEL_KEYS)}"
        )
    version = config.get("version", 1)
    if version not in _SUPPORTED_VERSIONS:
        raise ConfigurationError(
            f"unsupported config version {version!r}; "
            f"supported: {sorted(_SUPPORTED_VERSIONS)}"
        )
    return config


def _add_topology(builder: "ClusterBuilder", config: Dict[str, Any]) -> None:
    """The ``fabric`` section, or the explicit ``nodes`` + ``rails``."""
    if config.get("fabric") is not None:
        if config.get("nodes") or config.get("rails"):
            raise ConfigurationError(
                "'fabric' replaces 'nodes' + 'rails'; give one or the other"
            )
        builder.fabric(config["fabric"])
        return
    nodes = config.get("nodes")
    if not nodes:
        raise ConfigurationError(
            "config needs a non-empty 'nodes' list (or a 'fabric')"
        )
    for node in nodes:
        node = _knobs("node entry", node, _NODE_KEYS)
        if "name" not in node:
            raise ConfigurationError(f"node entry without a name: {node}")
        topology = None
        if "sockets" in node or "cores_per_socket" in node:
            topology = CpuTopology(
                sockets=int(node.get("sockets", 2)),
                cores_per_socket=int(node.get("cores_per_socket", 2)),
                signal_cost_us=float(node.get("signal_cost_us", 3.0)),
                preempt_cost_us=float(node.get("preempt_cost_us", 6.0)),
            )
        builder.add_node(
            node["name"],
            topology=topology,
            memcpy_rate=float(node.get("memcpy_rate", 3000.0)),
        )
    rails = config.get("rails")
    if not rails:
        raise ConfigurationError(
            "config needs a non-empty 'rails' list (or a 'fabric')"
        )
    for rail in rails:
        rail = _knobs("rail entry", rail, _RAIL_KEYS)
        try:
            driver = rail["driver"]
            node_a, node_b = rail["between"]
        except (KeyError, ValueError) as exc:
            raise ConfigurationError(
                f"rail entry needs 'driver' and a 2-node 'between': {rail}"
            ) from exc
        builder.add_rail(driver, node_a, node_b, **rail.get("overrides", {}))


def builder_from_config(source: ConfigSource) -> "ClusterBuilder":
    """Build a :class:`ClusterBuilder` from a config dict or JSON file."""
    from repro.api.cluster import ClusterBuilder

    config = read_config(source)
    builder = ClusterBuilder()
    _add_topology(builder, config)
    for section in SECTIONS:
        if config.get(section) is not None:
            builder._set(section, config[section])
    return builder


def load_cluster(source: ConfigSource) -> "Cluster":
    """One-call variant: config → built cluster."""
    return builder_from_config(source).build()
