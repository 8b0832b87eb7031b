"""CLI tests for the collectives and topology subcommands."""

import json

import pytest

from repro.bench import perfstats
from repro.bench.cli import main


class TestTopology:
    def test_default_is_paper_testbed(self, capsys):
        assert main(["topology"]) == 0
        out = capsys.readouterr().out
        assert "fabric: 2 nodes" in out
        assert "wire mesh" in out

    def test_fat_tree_shape(self, capsys):
        assert main(["topology", "--shape", "fat_tree", "--nodes", "16"]) == 0
        out = capsys.readouterr().out
        assert "fabric: 16 nodes" in out
        assert "fat tree" in out
        assert "spine" in out

    def test_flat_shape_with_custom_rails(self, capsys):
        assert (
            main(["topology", "--shape", "flat", "--nodes", "4", "--rails", "myri10g"])
            == 0
        )
        out = capsys.readouterr().out
        assert "flat switch: 4 ports" in out
        assert "quadrics" not in out

    def test_config_with_fabric_section(self, tmp_path, capsys):
        path = tmp_path / "cluster.json"
        path.write_text(
            json.dumps(
                {
                    "fabric": {
                        "nodes": 4,
                        "rails": [{"driver": "myri10g", "kind": "switch"}],
                    }
                }
            )
        )
        assert main(["topology", "--config", str(path)]) == 0
        assert "flat switch: 4 ports" in capsys.readouterr().out

    def test_config_without_fabric_section(self, tmp_path, capsys):
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps({"nodes": [{"name": "node0"}]}))
        assert main(["topology", "--config", str(path)]) == 2
        assert "no 'fabric' section" in capsys.readouterr().err

    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["topology", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, message",
        [
            ([{"fabric": {"nodes": 2}}], "must be a JSON object, not list"),
            (
                {"fabric": {"nodes": 2}, "fabrik": {}},
                "unknown config keys ['fabrik']",
            ),
            ({"version": 99, "fabric": {"nodes": 2}}, "unsupported config version"),
            ({"fabric": 1}, "fabric spec must be a mapping"),
        ],
        ids=["list", "unknown_key", "bad_version", "fabric_not_mapping"],
    )
    def test_config_checked_like_load_cluster(self, tmp_path, capsys, config, message):
        """``topology --config`` reads the file through the config loader:
        the same top-level and version checks, exit 2 with its message."""
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps(config))
        assert main(["topology", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err


class TestCollectivesCommand:
    def test_requires_a_flag(self, capsys):
        assert main(["collectives"]) == 2
        assert "--demo" in capsys.readouterr().err

    def test_demo_prints_predictions_and_measurements(self, capsys):
        assert main(["collectives", "--demo"]) == 0
        out = capsys.readouterr().out
        assert "<- selected" in out  # the cost model's table
        assert "COLL:" in out  # the measured race
        assert "rails" in out

    def test_registry_lists_coll(self, capsys):
        assert main(["list"]) == 0
        assert "COLL" in capsys.readouterr().out


class TestPerfstatsTrajectory:
    def test_baseline_is_pr8(self):
        assert perfstats.BASELINE_FILENAME == "BENCH_PR8.json"

    def test_collective_speedups_are_guarded(self):
        assert "alltoall_ring_speedup_8r" in perfstats.GUARDED_METRICS
        assert "alltoall_rails_skew_speedup_8r" in perfstats.GUARDED_METRICS

    def test_pr7_payload_stays_committed(self):
        """BENCH_PR7.json must stay in the tree: BENCH_PR8's obs-off
        bit-equality section re-measures against its rows."""
        payload = perfstats.load_baseline(
            perfstats.repo_root() / "BENCH_PR7.json"
        )
        assert payload is not None and payload["pr"] == 7

    def test_committed_payload_meets_acceptance(self):
        """The committed baseline carries the acceptance numbers:
        a classic schedule beats naive at 8/32/128 ranks, and the RailS
        balancer beats uniform striping on the skewed matrix."""
        payload = perfstats.load_baseline()
        assert payload is not None and payload["pr"] == 8
        for row in payload["alltoall_flat_switch"]:
            speedups = row["speedup_vs_naive"]
            assert max(speedups["ring"], speedups["doubling"]) > 1.0
        assert payload["skewed_alltoallv_fat_tree"]["mean_speedup"] > 1.0

    def test_simulated_metrics_reproduce_exactly(self):
        """The guarded collective speedups are simulated time: fresh
        measurement == committed baseline, bit for bit."""
        payload = perfstats.load_baseline()
        assert payload is not None
        fresh = perfstats.bench_alltoall_speedups()
        for metric in (
            "alltoall_naive_8r_us",
            "alltoall_ring_8r_us",
            "alltoall_ring_speedup_8r",
            "alltoall_rails_skew_speedup_8r",
        ):
            assert fresh[metric] == payload["current"][metric]
