"""Unit tests for the Fabric/FabricRail description layer."""

import pytest

from repro.hardware.topology import Fabric, FabricRail
from repro.util.errors import ConfigurationError


class TestFabricRail:
    def test_defaults(self):
        rail = FabricRail(technology="myri10g")
        assert rail.kind == "switch"
        assert rail.switch_latency == 0.3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FabricRail(technology="myri10g", kind="torus")

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            FabricRail(technology="myri10g", switch_latency=-0.1)

    def test_bad_fat_tree_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            FabricRail(technology="myri10g", kind="fat_tree", pod_size=-1)
        with pytest.raises(ConfigurationError):
            FabricRail(technology="myri10g", kind="fat_tree", spines=0)

    def test_dict_roundtrip(self):
        rail = FabricRail(
            technology="quadrics",
            kind="fat_tree",
            switch_latency=0.5,
            pod_size=4,
            spines=3,
            overrides={"wire_latency": 1.5},
        )
        assert FabricRail.from_dict(rail.to_dict()) == rail

    def test_from_dict_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            FabricRail.from_dict({"driver": "myri10g", "speed": 9000})

    def test_from_dict_needs_driver(self):
        with pytest.raises(ConfigurationError):
            FabricRail.from_dict({"kind": "switch"})


class TestFabricShape:
    def test_paper_testbed_is_two_node_wires(self):
        fabric = Fabric.paper_testbed()
        assert fabric.nodes == ("node0", "node1")
        assert all(r.kind == "wire" for r in fabric.rails)
        assert fabric.technologies == ("myri10g", "quadrics")

    def test_canned_shapes_pick_their_kind(self):
        assert all(r.kind == "wire" for r in Fabric.full_mesh(4).rails)
        assert all(r.kind == "switch" for r in Fabric.flat(4).rails)
        assert all(r.kind == "fat_tree" for r in Fabric.fat_tree(4).rails)

    def test_size_and_prefix(self):
        fabric = Fabric.flat(3, prefix="host")
        assert fabric.size == 3
        assert fabric.nodes == ("host0", "host1", "host2")

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            Fabric(nodes=("solo",), rails=(FabricRail(technology="myri10g"),))

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            Fabric(
                nodes=("a", "a"), rails=(FabricRail(technology="myri10g"),)
            )

    def test_no_rails_rejected(self):
        with pytest.raises(ConfigurationError):
            Fabric(nodes=("a", "b"), rails=())

    def test_technologies_deduplicated_in_order(self):
        fabric = Fabric(
            nodes=("a", "b"),
            rails=(
                FabricRail(technology="quadrics"),
                FabricRail(technology="myri10g"),
                FabricRail(technology="quadrics"),
            ),
        )
        assert fabric.technologies == ("quadrics", "myri10g")

    def test_with_node_names(self):
        fabric = Fabric.flat(3).with_node_names(["r0", "r1", "r2"])
        assert fabric.nodes == ("r0", "r1", "r2")
        with pytest.raises(ConfigurationError):
            Fabric.flat(3).with_node_names(["r0"])

    def test_pod_size_near_square_when_unset(self):
        rail = FabricRail(technology="myri10g", kind="fat_tree")
        assert Fabric.flat(8).pod_size_of(rail) == 3  # 3 pods of <=3
        assert Fabric.flat(16).pod_size_of(rail) == 4

    def test_pod_size_explicit_clamped_to_size(self):
        rail = FabricRail(technology="myri10g", kind="fat_tree", pod_size=64)
        assert Fabric.flat(4).pod_size_of(rail) == 4


class TestFabricSerialization:
    def test_dict_roundtrip(self):
        fabric = Fabric.fat_tree(6, pod_size=3, spines=2)
        assert Fabric.from_dict(fabric.to_dict()) == fabric

    def test_from_dict_node_count_with_prefix(self):
        fabric = Fabric.from_dict(
            {
                "nodes": 4,
                "prefix": "host",
                "rails": [{"driver": "myri10g", "kind": "wire"}],
            }
        )
        assert fabric.nodes == ("host0", "host1", "host2", "host3")

    def test_from_dict_explicit_names(self):
        fabric = Fabric.from_dict(
            {"nodes": ["a", "b"], "rails": [{"driver": "myri10g"}]}
        )
        assert fabric.nodes == ("a", "b")

    def test_from_dict_bad_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            Fabric.from_dict({"nodes": [], "rails": [{"driver": "x"}]})
        with pytest.raises(ConfigurationError):
            Fabric.from_dict({"nodes": 2, "rails": []})
        with pytest.raises(ConfigurationError):
            Fabric.from_dict(
                {"nodes": 2, "rails": [{"driver": "x"}], "color": "red"}
            )


    def test_from_dict_non_mapping_rejected(self):
        with pytest.raises(ConfigurationError, match="fabric spec must be a mapping"):
            Fabric.from_dict(1)

    def test_from_dict_non_mapping_rail_rejected(self):
        with pytest.raises(
            ConfigurationError, match="fabric rail spec must be a mapping"
        ):
            Fabric.from_dict({"nodes": 2, "rails": [1]})

    def test_from_dict_rails_string_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty 'rails' list"):
            Fabric.from_dict({"nodes": 2, "rails": "myri"})


class TestDescribe:
    def test_lists_nodes_and_rails(self):
        out = Fabric.paper_testbed().describe()
        assert "node0" in out and "node1" in out
        assert "wire mesh" in out

    def test_switch_and_fat_tree_lines(self):
        assert "flat switch" in Fabric.flat(4).describe()
        out = Fabric.fat_tree(16).describe()
        assert "fat tree" in out
        assert "4 pod(s) x 4 node(s)" in out

    def test_large_node_sets_elided(self):
        out = Fabric.flat(32).describe()
        assert "node0 .. node31 (32 nodes)" in out
