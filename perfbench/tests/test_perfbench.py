"""Tests of the benchmark itself: metric schema, determinism, seeding,
tracing hygiene and the layer map.

Run with ``python3 -m pytest perfbench/tests -q`` from the repo root.
"""

from __future__ import annotations

import importlib
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, run, tracing, workloads
from perfbench.workloads import FabricChaos, PaperP2P

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class SmallP2P(PaperP2P):
    """Two short episodes: the paper_p2p code path at test cost."""

    EPISODES = 2
    MESSAGES = 24


class SmallChaos(FabricChaos):
    """Two scenarios per soak kind instead of the CI windows."""

    KINDS = tuple((kind, 2, kw) for kind, _, kw in FabricChaos.KINDS)


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_units_and_directions():
    rows = [(n, u, b) for n, u, b in harness.END_TO_END + harness.PER_LAYER]
    rows += [(n, u, b) for n, u, b, _ in harness.DETAIL]
    names = [n for n, _, _ in rows]
    assert len(names) == len(set(names))
    for name, unit, better in rows:
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)
        assert better in ("lower", "higher"), name


def test_benchmark_json_matches_the_harness():
    spec = _benchmark_json()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, cls.why) for name, cls in workloads.WORKLOADS.items()
    ]
    assert run.NAMES == tuple(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(row) for row in harness.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row) for row in harness.PER_LAYER
    ]
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_pinned_makespans_are_the_committed_128_rank_row():
    payload = json.loads((ROOT / "BENCH_PR7.json").read_text())
    row = next(r for r in payload["alltoall_flat_switch"] if r["ranks"] == 128)
    assert row["makespan_us"] == workloads.COLL_PINNED_US


def test_same_seed_gives_bit_identical_simulated_metrics():
    first = harness.run_rounds(_set_up(SmallP2P(5)), 0.0)[0]
    second = harness.run_rounds(_set_up(SmallP2P(5)), 0.0)[0]
    wl = SmallP2P(5)
    assert wl.sim_metrics(first.outcomes) == wl.sim_metrics(second.outcomes)
    assert not any(o.problems for o in first.outcomes)


def test_chaos_windows_repeat_and_follow_the_seed():
    a = _set_up(SmallChaos(3))
    assert [s for _, seeds, _ in a.windows for s in seeds] == [6, 7, 6, 7, 6, 7]
    one = harness.run_rounds(a, 0.0)[0]
    two = harness.run_rounds(_set_up(SmallChaos(3)), 0.0)[0]
    assert a.sim_metrics(one.outcomes) == a.sim_metrics(two.outcomes)


def test_default_seed_starts_with_the_ci_chaos_windows():
    wl = _set_up(FabricChaos(0))
    ci = {"chaos": 50, "silent": 50, "fabric": 25}
    for kind, seeds, _ in wl.windows:
        assert seeds.start == 0 and len(seeds) >= ci[kind]


def test_a_different_seed_changes_the_paper_p2p_inputs():
    a, b = _set_up(PaperP2P(0)), _set_up(PaperP2P(1))
    assert a.schedules != b.schedules
    assert a.schedules == _set_up(PaperP2P(0)).schedules
    sizes = [size for _, sends in a.schedules for _, size in sends]
    assert min(sizes) >= PaperP2P.SIZE_MIN and max(sizes) <= PaperP2P.SIZE_MAX
    assert {load for load, _ in a.schedules} == set(PaperP2P.LOADS)
    # stratified sizes: the i-th smallest size of any seed lies in the
    # i-th log-width stratum (up to integer truncation of tiny sizes)
    width = (math.log(PaperP2P.SIZE_MAX) - math.log(PaperP2P.SIZE_MIN)) / PaperP2P.MESSAGES
    for (_, one), (_, two) in zip(a.schedules, b.schedules):
        for x, y in zip(sorted(s for _, s in one), sorted(s for _, s in two)):
            assert max(x, y) / min(x, y) <= math.exp(width) * 4 / 3


def _entry_points():
    for module, cls_name, attr in tracing.SPAN_POINTS + tracing.COUNT_POINTS:
        yield getattr(importlib.import_module(module), cls_name), attr
    comm = importlib.import_module("repro.api.mpi").Communicator
    for attr in tracing.COLLECTIVES:
        yield comm, attr


def _wrapped():
    return [
        f"{cls.__name__}.{attr}"
        for cls, attr in _entry_points()
        if hasattr(cls.__dict__[attr], "__perfbench_wrapped__")
    ]


class _Probe(SmallP2P):
    """Records, from inside an op, whether any wrapper is installed."""

    seen = None

    def ops(self):
        def probe():
            _Probe.seen = _wrapped()
            return workloads.Outcome(units=1)

        return super().ops() + [("probe", probe)]


def test_untraced_run_installs_no_wrappers():
    originals = {(c, a): c.__dict__[a] for c, a in _entry_points()}
    report = harness.run_timed(_Probe(0), 0.0, probes=0)
    assert report.correct, report.problems
    assert _Probe.seen == []
    assert all(c.__dict__[a] is f for (c, a), f in originals.items())


def test_traced_run_restores_entry_points_and_keeps_simulated_metrics():
    originals = {(c, a): c.__dict__[a] for c, a in _entry_points()}
    report = harness.run_traced(SmallChaos(1), 0.0)
    assert report.correct, report.problems
    assert all(c.__dict__[a] is f for (c, a), f in originals.items())
    values = {k: m["value"] for k, m in report.metrics.items()}
    assert set(values) == {name for name, _, _ in harness.PER_LAYER}
    assert values["faults.scenarios"] == 6
    assert values["core.invariants.checks"] > 0
    assert values["obs.self_s"] >= 0.0
    assert values["trace.overhead_ratio"] > 0.0


def test_every_program_file_has_a_layer_or_is_charged_to_callers():
    unowned = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if tracing.layer_of_file(str(path)) is None:
            unowned.append(path.relative_to(ROOT / "src" / "repro").as_posix())
    assert all(p.startswith("util/") or p == "__init__.py" for p in unowned), unowned
    assert tracing.layer_of_file(str(ROOT / "perfbench" / "run.py")) == "bench"
    assert tracing.layer_of_file("/usr/lib/python3/heapq.py") is None


def test_layer_self_times_sum_to_the_profile_total():
    import cProfile
    import pstats

    from repro.bench.experiments import fig8

    profile = cProfile.Profile()
    profile.enable()
    fig8.run(sizes=[64 * 1024])
    profile.disable()
    total = sum(row[2] for row in pstats.Stats(profile).stats.values())
    layers = tracing.layer_self_times(profile)
    assert set(layers) == set(tracing.LAYERS)
    assert sum(layers.values()) == pytest.approx(total, rel=1e-6)
    assert layers["simtime"] > 0 and layers["obs"] == 0.0


def test_run_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_p2p",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _set_up(workload):
    workload.setup()
    return workload
