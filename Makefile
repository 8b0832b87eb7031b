# Convenience targets; everything runs with src/ on PYTHONPATH.
PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

# Worker count for the sharded soak/sweep targets.  0 means "one worker
# per CPU" (resolved by repro.bench.parallel via os.cpu_count()).
JOBS ?= 0

.PHONY: test bench-smoke perf bench check faults-demo chaos chaos-wide \
        chaos-silent chaos-fabric fabric-demo calibration-demo \
        collectives-demo bench-parallel soak-parallel loc ab

# Tier-1 verify (the ROADMAP contract).
test:
	$(PYTHON) -m pytest -x -q

# Non-blank line counts of the Python sources under src/ and tests/.
loc:
	@for d in src tests; do \
		printf '%-6s %s\n' $$d "$$(find $$d -name '*.py' -exec cat {} + | grep -cv '^[[:space:]]*$$')"; \
	done

# Interleaved A/B of the repo benchmark (perfbench/run.py --trace 0):
# BASE (a git revision, or a checkout path) against the working tree.
BASE ?= HEAD~1
WORKLOAD ?= coll_alltoall
PAIRS ?= 10
SEED ?= 0
ab:
	$(PYTHON) tools/ab.py --base $(BASE) --workload $(WORKLOAD) \
		--pairs $(PAIRS) --seed $(SEED)

# The pre-merge gate: tier-1 tests plus the perf smoke guard.
check: test bench-smoke

# Narrated fault-injection demo (NIC dies mid-transfer, send survives).
faults-demo:
	$(PYTHON) -m repro.bench.cli faults --demo

# Fast kernel microbench (<30 s); fails when any guarded metric
# regresses versus the committed BENCH_PR8.json trajectory (30% for
# wall-clock rates, 5% for the deterministic collective speedups).
bench-smoke:
	$(PYTHON) -m repro.bench.cli perf --smoke

# Full hot-path measurement (no pass/fail, prints the table).
perf:
	$(PYTHON) -m repro.bench.cli perf

# The opt-in pytest perf marker (excluded from tier-1 by addopts).
bench:
	$(PYTHON) -m pytest benchmarks/bench_kernel.py -m perf -q

# Chaos soak: the fixed CI seed window under the invariant monitor
# (exits nonzero on any violation; see docs/chaos.md).
chaos:
	$(PYTHON) -m repro.bench.cli chaos --seeds 50

# Wider sweep (minutes, not seconds) — the workflow_dispatch CI job.
chaos-wide:
	$(PYTHON) -m repro.bench.cli chaos --seeds 2000 --shrink

# Silent-degrade soak: bandwidth drops with no fault event announced,
# drift loop armed — the invariant monitor must stay silent too.
chaos-silent:
	$(PYTHON) -m repro.bench.cli chaos --seeds 50 --silent --calibration

# Fabric chaos soak: 8-rank fat tree, spine outages / port flaps / pod
# partitions mixed into the episode pool, a re-planning alltoallv as
# the workload (docs/fabric-faults.md; the CI window).
chaos-fabric:
	$(PYTHON) -m repro.bench.cli chaos --seeds 25 --shape fat_tree --ranks 8

# Narrated fabric fault-tolerance demo: the BENCH_PR10 degraded-
# alltoall guard plus the healthy bit-equality check.
fabric-demo:
	$(PYTHON) -m repro.bench.cli fabric --demo

# Narrated estimator-drift-defense demo (docs/calibration.md).
calibration-demo:
	$(PYTHON) -m repro.bench.cli calibration --demo

# Collective-algorithm race + cost-model decision table
# (docs/collectives.md).
collectives-demo:
	$(PYTHON) -m repro.bench.cli collectives --demo

# Sharded bandwidth sweep: every (strategy, size) cell fanned out over
# $(JOBS) workers; output identical to the serial sweep.
bench-parallel:
	$(PYTHON) -m repro.bench.cli sweep --sizes 64K,256K,1M,4M,16M \
		--strategies hetero_split,iso_split,single_rail --jobs $(JOBS)

# Sharded chaos soak: per-seed scenarios fanned out over $(JOBS)
# workers; the soak artifact is byte-identical to a --jobs 1 run.
soak-parallel:
	$(PYTHON) -m repro.bench.cli chaos --seeds 200 --jobs $(JOBS)
