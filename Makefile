GO ?= go

.PHONY: build vet fmt-check test test-diff race bench bench-smoke bench-gate bench-gate-faults bench-gate-array bench-gate-update profile-fig2 profile-fig4 fuzz-smoke golden-update serve-smoke check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail when any file is not gofmt-clean.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./...

# Differential equivalence suite: the full trace × device × cache × fault
# matrix replayed through the frozen reference loop and the optimized loop,
# requiring byte-identical results, event streams, and observer logs, plus
# the physics property tests. See docs/PERFORMANCE.md.
test-diff:
	$(GO) test ./internal/core/difftest/ -v -run 'TestRunEquivalence|TestPrepEquivalence|TestPowerFailAfterLastRecord|TestEquivalenceWithWrongPrep|TestHybridBoundaryEquivalence|TestArrayEquivalence|TestArrayMirrorMatchesSingle|TestResponseProperties|TestEnergyProperties|TestWarmSnapshotConservation|TestWearProperties|FuzzRunEquivalence'

# Race-detector pass over the whole module; the parallel experiment sweeps
# and shared observability scopes are what this guards.
race:
	$(GO) test -race ./...

# Observability overhead guard plus the rest of the benchmarks.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# One iteration of every benchmark: catches benchmarks that stop
# compiling or crash, without measuring anything.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# The repo-root figure benchmarks replay full paper simulations, so one
# iteration is a whole run; best-of-3 with a wider threshold than the
# obsreport microbenchmarks (single-iteration full runs jitter more).
FIGURE_BENCH = ^(BenchmarkTable[1-4]|BenchmarkFig[1-4]|BenchmarkPrepareTrace|BenchmarkIndex(BTree|LSM))

# Regression gate: re-measure the obsreport benchmarks and the paper-figure
# benchmarks and fail when any gets slower or allocation-heavier than the
# committed baseline (30% for both; the hot-path overhaul made full runs
# fast enough that the figure gate no longer needs its old 50% slack).
# benchdiff keeps the best of the -count runs, which damps scheduler noise
# on shared runners.
bench-gate:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=1s -count=3 ./internal/obsreport/ \
		| $(GO) run ./cmd/benchdiff -baseline BENCH_obsreport.json
	$(GO) test -run='^$$' -bench='$(FIGURE_BENCH)' -benchmem -benchtime=1x -count=5 . \
		| $(GO) run ./cmd/benchdiff -baseline BENCH_figures.json -threshold 0.3
	$(MAKE) bench-gate-faults
	$(MAKE) bench-gate-array

# ratio_pairs runs benchmarks $(1) and $(2) of the root package five
# times, each in its own go test process, swapping which goes first on
# alternate iterations, so neither run order nor a slow minute on a shared
# runner lands on one side only. benchdiff -ratio keeps the best of five.
ratio_pairs = { for i in 1 2 3 4 5; do \
		if [ $$((i % 2)) -eq 1 ]; then order="$(1) $(2)"; else order="$(2) $(1)"; fi; \
		for b in $$order; do \
			$(GO) test -run='^$$' -bench="^$$b\$$" -benchtime=2s -count=1 . || exit 1; \
		done; \
	done; }

# Fault-layer overhead budget: the armed-but-quiet fault run must stay
# within 2% of the plan-free hot path. The two benchmarks are compared
# best-of-5 against each other (benchdiff -ratio), so machine speed cancels.
bench-gate-faults:
	$(call ratio_pairs,BenchmarkRunNilScope,BenchmarkFaultOff) \
		| $(GO) run ./cmd/benchdiff -ratio BenchmarkFaultOff/BenchmarkRunNilScope -threshold 0.02

# Array-layer overhead budget: the same simulation through a one-member
# mirror must stay within 5% of the bare flash card — the composite-device
# wrapper (fan-out, acked ledger, death checks) on its healthy path.
bench-gate-array:
	$(call ratio_pairs,BenchmarkRunNilScope,BenchmarkArrayMirror) \
		| $(GO) run ./cmd/benchdiff -ratio BenchmarkArrayMirror/BenchmarkRunNilScope -threshold 0.05

# Refresh the committed baselines after an intentional perf change; review
# the diff before committing.
bench-gate-update:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=1s -count=3 ./internal/obsreport/ \
		| $(GO) run ./cmd/benchdiff -baseline BENCH_obsreport.json -update
	$(GO) test -run='^$$' -bench='$(FIGURE_BENCH)' -benchmem -benchtime=1x -count=5 . \
		| $(GO) run ./cmd/benchdiff -baseline BENCH_figures.json -update

# CPU and allocation profiles of the two headline figure replays; open the
# output with `go tool pprof cpu-fig2.pprof`. Ten iterations give pprof's
# 100 Hz sampler enough samples for a stable flat profile.
profile-fig2:
	$(GO) test -run='^$$' -bench='^BenchmarkFig2$$' -benchtime=10x \
		-cpuprofile cpu-fig2.pprof -memprofile mem-fig2.pprof .
profile-fig4:
	$(GO) test -run='^$$' -bench='^BenchmarkFig4$$' -benchtime=10x \
		-cpuprofile cpu-fig4.pprof -memprofile mem-fig4.pprof .

# End-to-end fleet-service smoke: boot `storagesim -service`, submit a
# grid job over the HTTP API, poll it to completion, fetch every fleet
# figure and the dashboard, then SIGINT and require a graceful 130 exit.
# See docs/SERVICE.md.
serve-smoke:
	sh scripts/serve_smoke.sh

# Short coverage-guided fuzz burst over the simulator core.
fuzz-smoke:
	MOBILESTORAGE_FUZZ_SMOKE=1 $(GO) test ./internal/core -run TestFuzzSmoke -v

# Regenerate the golden files (core results and SVG figures) after an
# intentional behavior change; review the diff before committing.
golden-update:
	$(GO) test ./internal/core -run TestGolden -update
	$(GO) test ./internal/plot ./internal/obsreport -run 'TestGolden|TestGridGolden' -update
	$(GO) test ./internal/index -run TestTraceGolden -update

check: fmt-check vet test race
