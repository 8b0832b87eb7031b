"""Tests for declarative cluster configuration."""

import json

import pytest

from repro.api import ClusterBuilder, MpiWorld, load_cluster
from repro.api.config import SECTIONS, builder_from_config
from repro.bench.runners import default_profiles
from repro.core import MessageStatus, ProfileStore
from repro.util.errors import ConfigurationError
from repro.util.units import MiB


def paper_config(**extra):
    config = {
        "strategy": "hetero_split",
        "nodes": [
            {"name": "node0", "sockets": 2, "cores_per_socket": 2},
            {"name": "node1", "sockets": 2, "cores_per_socket": 2},
        ],
        "rails": [
            {"driver": "myri10g", "between": ["node0", "node1"]},
            {"driver": "quadrics", "between": ["node0", "node1"]},
        ],
    }
    config.update(extra)
    return config


@pytest.fixture(scope="module")
def profile_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("profiles") / "profiles.json"
    default_profiles().save(path)
    return str(path)


class TestLoadCluster:
    def test_paper_testbed_from_dict(self, profile_file):
        cluster = load_cluster(
            paper_config(sampling={"profile_file": profile_file})
        )
        a, b = cluster.session("node0"), cluster.session("node1")
        b.irecv()
        msg = a.isend("node1", 1 * MiB)
        cluster.run()
        assert msg.status is MessageStatus.COMPLETE
        assert len(msg.rails_used) == 2

    def test_from_json_file(self, tmp_path, profile_file):
        path = tmp_path / "cluster.json"
        path.write_text(
            json.dumps(paper_config(sampling={"profile_file": profile_file}))
        )
        cluster = load_cluster(str(path))
        assert sorted(cluster.machines) == ["node0", "node1"]

    def test_driver_overrides_applied(self, profile_file):
        config = paper_config(sampling=True)
        config["rails"][0]["overrides"] = {"wire_latency": 9.0}
        cluster = load_cluster(config)
        assert cluster.machines["node0"].nics[0].profile.wire_latency == 9.0

    def test_per_node_strategy(self, profile_file):
        cluster = load_cluster(
            paper_config(
                per_node_strategy={"node1": "greedy"},
                sampling={"profile_file": profile_file},
            )
        )
        assert cluster.engine("node0").strategy.name == "hetero_split"
        assert cluster.engine("node1").strategy.name == "greedy"

    def test_options_forwarded(self, profile_file):
        cluster = load_cluster(
            paper_config(
                options={"multicore_rx": True, "app_core": 1},
                sampling={"profile_file": profile_file},
            )
        )
        eng = cluster.engine("node0")
        assert eng.pioman.multicore_rx
        assert eng.app_core.core_id == 1

    def test_topology_from_config(self, profile_file):
        config = paper_config(sampling={"profile_file": profile_file})
        config["nodes"][0]["cores_per_socket"] = 4
        cluster = load_cluster(config)
        assert len(cluster.machines["node0"].cores) == 8


class TestValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            builder_from_config(paper_config(flux_capacitor=True))

    def test_missing_nodes_rejected(self):
        with pytest.raises(ConfigurationError, match="nodes"):
            builder_from_config({"rails": []})

    def test_missing_rails_rejected(self):
        config = paper_config()
        config["rails"] = []
        with pytest.raises(ConfigurationError, match="rails"):
            builder_from_config(config)

    def test_nameless_node_rejected(self):
        config = paper_config()
        config["nodes"][0] = {"sockets": 2}
        with pytest.raises(ConfigurationError, match="without a name"):
            builder_from_config(config)

    def test_malformed_rail_rejected(self):
        config = paper_config()
        config["rails"][0] = {"driver": "myri10g", "between": ["node0"]}
        with pytest.raises(ConfigurationError, match="rail entry"):
            builder_from_config(config)

    def test_bad_sampling_value_rejected(self):
        with pytest.raises(ConfigurationError, match="sampling"):
            builder_from_config(paper_config(sampling="maybe"))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            builder_from_config(str(tmp_path / "ghost.json"))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            builder_from_config(str(path))

    @pytest.mark.parametrize(
        "body, kind",
        [('[{"fabric": 1}]', "list"), ("[1, 2]", "list"), ("7", "int")],
        ids=["list_of_objects", "list_of_ints", "number"],
    )
    def test_non_object_file_rejected(self, tmp_path, body, kind):
        path = tmp_path / "list.json"
        path.write_text(body)
        with pytest.raises(
            ConfigurationError, match=f"must be a JSON object, not {kind}"
        ):
            load_cluster(str(path))

    def test_unsupported_version_rejected(self):
        with pytest.raises(ConfigurationError, match="unsupported config version"):
            builder_from_config(paper_config(version=99))

    def test_version_one_accepted(self):
        builder_from_config(paper_config(version=1, sampling=False))


class TestFaultsSection:
    def schedule_dict(self):
        from repro.faults import FaultSchedule

        return FaultSchedule(seed=7).nic_down(
            "node0.myri10g0", at=150.0, duration=2000.0
        ).to_dict()

    def test_faults_config_round_trip(self, profile_file):
        config = paper_config(
            sampling={"profile_file": profile_file},
            faults=self.schedule_dict(),
            resilience={"timeout": "200us", "max_retries": 4},
        )
        cluster = load_cluster(config)
        assert cluster.fault_injector is not None
        assert cluster.fault_injector.schedule.to_dict() == self.schedule_dict()
        eng = cluster.engine("node0")
        assert eng.timeout == 200.0
        assert eng.max_retries == 4
        # the built cluster actually survives the scheduled outage
        a, b = cluster.sessions("node0", "node1")
        b.irecv(source="node0")
        msg = a.isend("node1", "4M")
        result = cluster.run()
        assert msg.status is MessageStatus.COMPLETE
        assert result.faults_fired == 2

    def test_faulty_config_runs_are_deterministic(self, profile_file):
        def run_once():
            config = paper_config(
                sampling={"profile_file": profile_file},
                faults=self.schedule_dict(),
                resilience={"timeout": "200us"},
            )
            cluster = load_cluster(config)
            a, b = cluster.sessions("node0", "node1")
            b.irecv(source="node0")
            msg = a.isend("node1", "4M")
            result = cluster.run()
            return msg.t_complete, result.events_processed

        assert run_once() == run_once()

    def test_bad_faults_section_rejected(self):
        with pytest.raises(ConfigurationError, match="faults"):
            builder_from_config(paper_config(faults=["not", "a", "dict"]))
        with pytest.raises(ConfigurationError, match="unknown faults keys"):
            builder_from_config(paper_config(faults={"surprise": 1}))

    def test_bad_resilience_section_rejected(self):
        with pytest.raises(ConfigurationError, match="resilience"):
            builder_from_config(paper_config(resilience="fast please"))
        with pytest.raises(ConfigurationError, match="unknown resilience keys"):
            builder_from_config(paper_config(resilience={"retry_hard": True}))


class TestUnknownKeys:
    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigurationError) as exc:
            builder_from_config(paper_config(options={"multicore_rX": True}))
        msg = str(exc.value)
        assert "unknown options keys ['multicore_rX']" in msg
        assert "known: ['app_core', 'multicore_rx']" in msg

    def test_unknown_node_key_rejected(self):
        config = paper_config()
        config["nodes"][0]["socket"] = 4
        with pytest.raises(ConfigurationError) as exc:
            builder_from_config(config)
        msg = str(exc.value)
        assert "unknown node entry keys ['socket']" in msg
        assert "'cores_per_socket'" in msg and "'sockets'" in msg

    def test_unknown_rail_key_rejected(self):
        config = paper_config()
        config["rails"][1]["overide"] = {"wire_latency": 9.0}
        with pytest.raises(ConfigurationError) as exc:
            builder_from_config(config)
        msg = str(exc.value)
        assert "unknown rail entry keys ['overide']" in msg
        assert "known: ['between', 'driver', 'overrides']" in msg


class TestBuildChecks:
    def test_per_node_strategy_for_unknown_node(self):
        with pytest.raises(ConfigurationError, match="unknown node.*node7"):
            load_cluster(paper_config(per_node_strategy={"node7": "greedy"}))
        with pytest.raises(ConfigurationError, match="unknown node.*node7"):
            ClusterBuilder.paper_testbed().strategy_for("node7", "greedy").build()

    @pytest.mark.parametrize("core", [99, 4, -1])
    def test_app_core_out_of_range(self, core):
        match = rf"app_core {core} outside \[0, 4\)"
        with pytest.raises(ConfigurationError, match=match):
            load_cluster(paper_config(options={"app_core": core}))
        with pytest.raises(ConfigurationError, match=match):
            ClusterBuilder.paper_testbed().app_core(core).build()

    def test_last_core_still_accepted(self, profile_file):
        cluster = load_cluster(
            paper_config(
                options={"app_core": 3}, sampling={"profile_file": profile_file}
            )
        )
        assert cluster.engine("node1").app_core.core_id == 3


#: section -> (a bad value for the config file, the same mistake made
#: through the builder method)
PARITY_CASES = {
    "strategy": (
        "warp_drive",
        lambda: ClusterBuilder.paper_testbed(strategy="warp_drive"),
    ),
    "per_node_strategy": (
        {"node7": "greedy"},
        lambda: ClusterBuilder.paper_testbed().strategy_for("node7", "greedy"),
    ),
    "options": (
        {"app_core": 99},
        lambda: ClusterBuilder.paper_testbed().app_core(99),
    ),
    "sampling": (
        {"profiles": "profiles.json"},
        lambda: ClusterBuilder.paper_testbed().sampling(profiles="profiles.json"),
    ),
    "collectives": (
        {"alltoall": "butterfly"},
        lambda: ClusterBuilder.paper_testbed().collectives(
            {"alltoall": "butterfly"}
        ),
    ),
    "faults": (
        ["not", "a", "schedule"],
        lambda: ClusterBuilder.paper_testbed().faults(["not", "a", "schedule"]),
    ),
    "resilience": (
        {"retry_hard": True},
        lambda: ClusterBuilder.paper_testbed().resilience(retry_hard=True),
    ),
    "observability": (
        {"tracer": True},
        lambda: ClusterBuilder.paper_testbed().observability(tracer=True),
    ),
    "invariants": (
        {"trail_depth": 0},
        lambda: ClusterBuilder.paper_testbed().invariants(trail_depth=0),
    ),
    "calibration": (
        {"bogus": 1},
        lambda: ClusterBuilder.paper_testbed().calibration(bogus=1),
    ),
}


class TestSurfaceParity:
    def test_every_section_has_a_case(self):
        assert set(PARITY_CASES) == set(SECTIONS)

    @pytest.mark.parametrize("section", sorted(SECTIONS))
    def test_builder_and_config_raise_the_same(self, section):
        bad, via_builder = PARITY_CASES[section]
        with pytest.raises(ConfigurationError) as from_config:
            load_cluster(paper_config(**{section: bad}))
        with pytest.raises(ConfigurationError) as from_builder:
            via_builder().build()
        assert str(from_builder.value) == str(from_config.value)


RANKS = ("rank0", "rank1", "rank2")
PAIRS = [(a, b) for i, a in enumerate(RANKS) for b in RANKS[i + 1:]]


class TestThreeFrontDoors:
    """One 3-node full mesh described as builder calls, as a config dict
    and as ``MpiWorld.create`` builds the same cluster and the same run."""

    def clusters(self, profile_file):
        profiles = ProfileStore.load(profile_file)
        builder = ClusterBuilder("hetero_split").sampling(profiles=profiles)
        for name in RANKS:
            builder.add_node(name)
        for a, b in PAIRS:
            builder.add_rail("myri10g", a, b)
            builder.add_rail("quadrics", a, b)
        config = {
            "strategy": "hetero_split",
            "nodes": [{"name": name} for name in RANKS],
            "rails": [
                {"driver": driver, "between": [a, b]}
                for a, b in PAIRS
                for driver in ("myri10g", "quadrics")
            ],
            "sampling": {"profile_file": profile_file},
        }
        world = MpiWorld.create(3, profiles=profiles)
        return builder.build(), load_cluster(config), world.cluster

    @staticmethod
    def describe(cluster):
        return {
            name: (
                [nic.name for nic in cluster.machines[name].nics],
                engine.strategy.name,
                engine.app_core.core_id,
                engine.pioman.multicore_rx,
                engine.timeout,
                engine.max_retries,
            )
            for name, engine in sorted(cluster.engines.items())
        }

    @staticmethod
    def exchange(cluster):
        for src, dst in PAIRS + [(b, a) for a, b in PAIRS]:
            cluster.session(dst).irecv(source=src)
            cluster.session(src).isend(dst, 1 * MiB)
        result = cluster.run()
        return cluster.sim.now, result.events_processed

    def test_same_cluster_and_run(self, profile_file):
        built, loaded, created = self.clusters(profile_file)
        assert self.describe(built) == self.describe(loaded)
        assert self.describe(built) == self.describe(created)
        assert (
            self.exchange(built) == self.exchange(loaded) == self.exchange(created)
        )

    def test_create_numbers_nics_pair_major(self, profile_file):
        world = MpiWorld.create(5, profiles=ProfileStore.load(profile_file))
        names = [nic.name for nic in world.cluster.machines["rank0"].nics]
        assert names == [
            "myri10g0", "quadrics1", "myri10g2", "quadrics3",
            "myri10g4", "quadrics5", "myri10g6", "quadrics7",
        ]
