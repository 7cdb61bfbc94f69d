# Developer entry points.  The repo is run in-place (no install step):
# everything goes through PYTHONPATH=src, matching ROADMAP's tier-1 line.

PY := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python

.PHONY: test fuzz bench bench-general bench-sim bench-fleet bench-experiments bench-live bench-smoke burnin burnin-smoke live-smoke perfbench-selftest perfbench-trace-smoke perfbench-pairs importtime

## tier-1 test suite (must stay green)
test:
	$(PY) -m pytest -x -q

## hostile-input fuzzers at CI size (CI job): the trace-payload, live
## restore, sweep-artifact, store-index, store-segment, CLI-argument,
## workload-mapping, feed-repair (feeds and their offsets) and tampered
## fleet-report contract fuzzers at 10^4 examples each, under the hypothesis
## "fuzz" profile of tests/conftest.py (tier-1 runs them at their own,
## smaller example counts).  A RuntimeWarning is an error here, so a
## numeric overflow on a hostile-input path fails the job
FUZZ_TESTS := tests/arrivals/test_serialization.py::TestPayloadFuzz \
	tests/live/test_resume_token.py::test_fuzzed_open_window_restores_exactly_or_raises \
	tests/sweeps/test_quarantine.py::TestArtifactFuzz \
	tests/scale/test_columnar.py::TestIndexFuzz \
	tests/scale/test_columnar.py::TestSegmentFuzz \
	tests/burnin/test_cli.py::TestArgumentFuzz \
	tests/fleet/test_workload_values.py::TestWorkloadFuzz \
	tests/fleet/test_runner_faults.py::TestSanitizeTimes::test_repair_equals_np_unique_per_title \
	tests/fleet/test_runner_faults.py::TestSanitizeTimes::test_hostile_offsets_repair_or_raise_value_error \
	tests/burnin/test_contracts.py::TestSummaryOracleFuzz
fuzz:
	$(PY) -m pytest -q -W error::RuntimeWarning --hypothesis-profile=fuzz $(FUZZ_TESTS)

## full fastpath sweep: regenerates BENCH_fastpath.json at the repo root
bench:
	$(PY) benchmarks/bench_fastpath.py

## general-arrivals sweep: regenerates BENCH_general.json (times the
## O(n^3) forest oracle at n=2000 once; takes several minutes)
bench-general:
	$(PY) benchmarks/bench_general.py

## flat-simulation sweep: regenerates BENCH_sim.json (runs the
## per-client verification oracle at n=10^5 once; ~2 minutes)
bench-sim:
	$(PY) benchmarks/bench_sim.py

## batched fleet engine sweep: regenerates BENCH_fleet.json (runs the
## event-driven oracle at n=10^5 per policy; ~1 minute)
bench-fleet:
	$(PY) benchmarks/bench_fleet.py

## sweep-tier figure drivers vs the retired per-point loops:
## regenerates BENCH_experiments.json (paper-scale grids; ~10 seconds)
bench-experiments:
	$(PY) benchmarks/bench_experiments.py

## live-tier maintenance sweep: regenerates BENCH_live.json (incremental
## forest vs per-epoch full rebuild over a 96-epoch day; ~30 seconds)
bench-live:
	$(PY) benchmarks/bench_live.py

## quick pytest-benchmark pass over the smoke cases of every
## benchmarks/bench_*.py, so a new bench file runs in CI by default
## (every run asserts fast == reference)
bench-smoke:
	$(PY) -m pytest $(wildcard benchmarks/bench_*.py) --benchmark-only -q

## full fault-injected soak: 50 episodes across every fault family,
## every standing contract checked after each; writes the evidence
## report and exits non-zero on any violation
burnin:
	$(PY) -m repro burnin --report soak-report.json

## quick soak pass (CI job next to bench-smoke): every fault family
## fires at least twice; non-zero exit on any contract violation
burnin-smoke:
	$(PY) -m repro burnin --episodes 10

## live-tier acceptance soak (CI job): accelerated diurnal day through
## the epoch daemon with a mid-run checkpoint/restore and an injected
## worker kill; exits 5 on any lead-time, equality, or fence violation
live-smoke:
	$(PY) -m repro live --smoke

## end-to-end benchmark harness check (CI job): one spoiled pass per
## perfbench workload must be reported as failed, so a src/ API change
## that breaks the harness fails here, not in the next benchmark run
perfbench-selftest:
	python3 perfbench/run.py --selftest

## traced end-to-end benchmark check (CI job): one --trace 1 pass per
## perfbench workload; fails when a pass breaks or any output check
## fails.  Traced passes wrap program attributes by name, so a refactor
## that renames one fails here while perfbench-selftest stays green
perfbench-trace-smoke:
	@for w in $$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do \
	  python3 perfbench/run.py --workload $$w --seconds 1 --trace 1 | tail -n 1 \
	    | python3 -c 'import json, sys; r = json.loads(sys.stdin.read() or "{}"); print(sys.argv[1] + ":", r.get("failed", "?"), "of", r.get("attempted", "?"), "checks failed"); sys.exit(r.get("failed", 1) > 0)' $$w \
	    || exit 1; \
	done

## alternating base/change perfbench pairs with the standing verdict per
## end-to-end metric (gain / within bound / unresolved / worse); BASE is a
## git ref checked out into a temporary worktree, or a checkout's path:
##   make perfbench-pairs W=fleet-hot-check SEED=7 PAIRS=10 BASE=HEAD~1
SEED ?= 1
PAIRS ?= 10
BASE ?= HEAD
perfbench-pairs:
	python3 benchmarks/perfbench_pairs.py --workload $(W) --seed $(SEED) --pairs $(PAIRS) --base $(BASE)

## one perfbench workload's set-up imports under python -X importtime, in a
## fresh interpreter: repro module count and source lines, import time and
## the ten largest cumulative entries, so an added eager import shows here:
##   make importtime W=fleet-catalog
importtime:
	python3 benchmarks/importtime.py --workload $(W)
