# Tier-1 gate: everything CI runs, in order. `make ci` must pass before
# merging.

GO ?= go

# Per-target budget for the fuzz smoke pass; bump for a real fuzzing session
# (e.g. `make fuzz-smoke FUZZTIME=10m`).
FUZZTIME ?= 10s

# Repo-wide statement-coverage floor for `make cover`. Set just under the
# measured baseline (80.8%) so genuine regressions fail while scheduler
# noise does not. Raise it when coverage rises; never lower it to merge.
COVER_FLOOR ?= 80.0

.PHONY: ci lint lint-allows vet build test test-determinism test-scenarios race-monitor race-learn race-ledger race-par bench-obs bench bench-par bench-monitor bench-learn bench-flight bench-step bench-step-smoke obs-smoke fuzz-smoke cover

ci: lint vet build test test-determinism test-scenarios race-monitor race-learn race-ledger race-par bench-obs bench-monitor bench-learn bench-flight bench-step-smoke obs-smoke fuzz-smoke cover

# Repo-specific invariant analyzers (detrange, rngdiscipline, wallclock,
# hotpathalloc, kernelparity): compile-time proof of the determinism, RNG,
# clock and hot-path contracts, run ahead of go vet so contract breaks
# surface before generic diagnostics. Exits non-zero on any unsuppressed
# diagnostic. odrl-vet carries its own go/parser+go/types driver because
# this container cannot add golang.org/x/tools; if that dependency ever
# becomes available, the analyzers port to a multichecker and this target
# becomes `go vet -vettool=$$(which odrl-vet) ./...` unchanged.
lint:
	$(GO) run ./cmd/odrl-vet ./...

# Audit ledger: every //odrl:allow suppression in the tree with its
# mandatory reason, so waivers stay reviewable.
lint-allows:
	$(GO) run ./cmd/odrl-vet -allows ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Determinism gate for the parallel execution layer: sequential (Workers=1)
# and parallel (Workers=8) runs must produce byte-identical tables and
# telemetry at every level (experiment fan-out, chip stepping, OD-RL).
test-determinism:
	$(GO) test -run 'TestParallelDeterminism|TestStepParallelDeterminism|TestDecideParallelDeterminism' \
		./internal/experiments/ ./internal/manycore/ ./internal/core/

# Scenario contract gate: the spec-parity harness (engine tables from
# checked-in JSON specs byte-identical to the experiments goldens at -j1
# and -j4), the cache properties (hit-is-byte-identical, one-field
# mutations change the hash, failures never memoised) and the odrl-run
# CLI surface.
test-scenarios:
	$(GO) test -count=1 ./internal/scenario/ ./cmd/odrl-run/

# Race hammer on the monitor's time-series store: concurrent HTTP-style
# readers snapshotting while the epoch loop appends and decimates.
race-monitor:
	$(GO) test -race -count=1 -run 'TestStoreConcurrentReadWrite|TestSSEStream|TestSlowSubscriber' ./internal/obs/monitor/

# Race hammer on the learn layer's run store: concurrent /debug/learn and
# summary readers while the epoch loop streams per-agent samples.
race-learn:
	$(GO) test -race -count=1 -run 'TestLearnStoreRace' ./internal/obs/learn/

# Race hammer on the run ledger: concurrent CLI sessions appending to one
# ledger.jsonl while readers re-parse it, plus the flight recorder's
# dump-while-recording path.
race-ledger:
	$(GO) test -race -count=1 -run 'TestLedgerConcurrentWriters' ./internal/obs/ledger/
	$(GO) test -race -count=1 -run 'TestDumpAllRacesEpochLoop' ./internal/obs/flight/

# Race gate on the packages the parallel layer touches most; `make test`
# already runs -race repo-wide, this narrows the loop while iterating.
race-par:
	$(GO) test -race ./internal/par/ ./internal/experiments/ ./internal/obs/

# Compile-and-run check of the observability benchmarks, including the
# disabled-hot-path guarantee (<5 ns/epoch with tracing off). One
# iteration keeps CI fast; run `make bench` for real numbers.
bench-obs:
	$(GO) test -run=- -bench=BenchmarkObs -benchtime=1x ./internal/obs/

bench:
	$(GO) test -run=- -bench=. -benchtime=1s ./internal/obs/

# Short fuzz pass over every decoder that accepts external bytes (workload
# traces, obs JSONL records, fault plans) and over the JSONL trace record
# encoder against json.Marshal. Go runs one fuzz target per
# invocation, so each gets its own anchored pattern.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzReadJSON$$' -fuzztime=$(FUZZTIME) ./internal/workload/
	$(GO) test -run='^$$' -fuzz='^FuzzTraceRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/workload/
	$(GO) test -run='^$$' -fuzz='^FuzzReadRecords$$' -fuzztime=$(FUZZTIME) ./internal/obs/
	$(GO) test -run='^$$' -fuzz='^FuzzTraceRecordEncoding$$' -fuzztime=$(FUZZTIME) ./internal/obs/
	$(GO) test -run='^$$' -fuzz='^FuzzPlanJSON$$' -fuzztime=$(FUZZTIME) ./internal/fault/
	$(GO) test -run='^$$' -fuzz='^FuzzRulesJSON$$' -fuzztime=$(FUZZTIME) ./internal/obs/monitor/
	$(GO) test -run='^$$' -fuzz='^FuzzSnapshotRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/obs/learn/
	$(GO) test -run='^$$' -fuzz='^FuzzAllowComment$$' -fuzztime=$(FUZZTIME) ./internal/analysis/
	$(GO) test -run='^$$' -fuzz='^FuzzSpecJSON$$' -fuzztime=$(FUZZTIME) ./internal/scenario/
	$(GO) test -run='^$$' -fuzz='^FuzzRunRecord$$' -fuzztime=$(FUZZTIME) ./internal/obs/ledger/

# Coverage gate: repo-wide statement coverage must stay at or above
# COVER_FLOOR. Writes cover.out for `go tool cover -html=cover.out`.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { \
		if (t + 0 < f + 0) { printf "coverage %.1f%% is below floor %.1f%%\n", t, f; exit 1 } \
		printf "coverage %.1f%% (floor %.1f%%)\n", t, f }'

# Flight-recorder-off-vs-on epoch-loop overhead: writes BENCH_flight.json
# and fails if any case exceeds experiments.FlightOverheadMaxPct (3%). The
# off leg runs with no observer at all, so the number is the full cost of
# always-on post-mortem recording.
bench-flight:
	$(GO) run ./cmd/odrl-bench -bench-flight BENCH_flight.json

# End-to-end observatory smoke: two short ledgered runs into a scratch
# ledger, then pin the first-run baseline, regression-check the re-run and
# list the history. Proves the whole record->query->gate loop outside unit
# tests; the scratch dir keeps CI runs out of the operator's real ledger.
obs-smoke:
	rm -rf .odrl-smoke
	ODRL_LEDGER=.odrl-smoke/ledger $(GO) run ./cmd/odrl -controllers greedy -cores 16 -warmup 0.2 -measure 0.5
	ODRL_LEDGER=.odrl-smoke/ledger $(GO) run ./cmd/odrl-obs -pin latest
	ODRL_LEDGER=.odrl-smoke/ledger $(GO) run ./cmd/odrl -controllers greedy -cores 16 -warmup 0.2 -measure 0.5
	ODRL_LEDGER=.odrl-smoke/ledger $(GO) run ./cmd/odrl-obs -check
	ODRL_LEDGER=.odrl-smoke/ledger $(GO) run ./cmd/odrl-obs -list
	rm -rf .odrl-smoke

# Epoch-kernel throughput gate: writes BENCH_step.json (epochs/sec at
# 64/256/1024 cores, struct-of-arrays vs the retained reference kernel)
# and fails unless the raw steady 256-core speedup clears the gate baked
# into the report (>= experiments.BenchStepMinSpeedup, 5x).
bench-step:
	$(GO) run ./cmd/odrl-bench -bench-step BENCH_step.json

# Compile-and-run smoke of the kernel benchmarks for CI: one iteration of
# every StepKernel case, so the SoA and reference harnesses can't rot.
bench-step-smoke:
	$(GO) test -run=- -bench='BenchmarkStepKernel' -benchtime=1x .

# Sequential-vs-parallel wall-clock comparison: writes BENCH_par.json
# (workers, wall-clock seconds, speedup per case) and runs the Step/Sweep
# parallel benchmarks. Speedup is bounded by host CPU count.
bench-par:
	$(GO) run ./cmd/odrl-bench -bench-par BENCH_par.json
	$(GO) test -run=- -bench='BenchmarkStepParallel|BenchmarkStepSequential|BenchmarkSweepParallel' -benchtime=1s .

# Monitoring-off-vs-on epoch-loop overhead: writes BENCH_monitor.json and
# fails if any case exceeds experiments.MonitorOverheadMaxPct (5%).
bench-monitor:
	$(GO) run ./cmd/odrl-bench -bench-monitor BENCH_monitor.json

# Learning-introspection-off-vs-on epoch-loop overhead: writes
# BENCH_learn.json and fails if any case exceeds
# experiments.LearnOverheadMaxPct (5%).
bench-learn:
	$(GO) run ./cmd/odrl-bench -bench-learn BENCH_learn.json
