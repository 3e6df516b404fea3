GO ?= go

# CHAOS_SEED picks the fault schedule the chaos suite injects on top of
# its built-in seeds; a red run is reproduced by re-running with the
# seed the failure printed.
CHAOS_SEED ?= 1

# BENCH_FILE is the snapshot `make bench` writes; benchcheck ignores it
# and auto-discovers the newest committed BENCH_PR<N>.json instead.
BENCH_FILE ?= BENCH_PR10.json

.PHONY: verify build test race bench vet chaos trace monitor benchcheck enginediff repl slo doctor benchmod fuzz

# verify is the tier-1 gate: everything must pass before a commit lands.
# benchcheck is advisory (non-fatal): it flags benchmark drift but a
# legitimate behavior change just re-runs `make bench` to refresh the
# committed numbers.
verify:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) chaos
	$(MAKE) repl
	$(MAKE) trace
	$(MAKE) monitor
	$(MAKE) enginediff
	$(MAKE) slo
	$(MAKE) doctor
	$(MAKE) benchmod
	$(MAKE) fuzz
	@$(MAKE) benchcheck || echo "warning: benchmark drift (non-fatal); refresh $(BENCH_FILE) with 'make bench' if intended"

# monitor runs the online-monitor suite under the race detector plus the
# monitor-on/off differential proof: a monitored run must execute the
# exact event sequence of a bare one.
monitor:
	$(GO) test -race ./internal/monitor ./internal/obs
	$(GO) test -race -run 'DriftMonitorDifferential|MonitorMatchesRegistry|TracingDisabledDifferential' ./internal/experiments ./internal/mpiio

# enginediff is the timer-wheel acceptance proof: the wheel engine and
# the retained heap engine must fire the identical event sequence, both
# on synthetic schedules and replaying full IOR/chaos/drift scenarios,
# every quick figure regenerated on the heap engine must match the
# wheel-printed golden byte for byte, and the deterministic experiment
# fan-out must be byte-identical at every worker count.
enginediff:
	$(GO) test -race -run 'TestWheelHeapDifferential|TestEngineWheelHeap|TestRunParallel|TestParallelSeedSweep|TestQuickFiguresGolden' ./internal/sim ./internal/experiments

# slo runs the telemetry suite under the race detector: the flight
# recorder and burn-rate engine units, the attached-pipeline
# differentials (telemetry must be a pure observer of IOR, chaos and
# drift), the double-crash alerting acceptance over seeds 1-3, and the
# slo/record/metrics -prom CLI smoke tests.
slo:
	$(GO) test -race ./internal/telemetry
	$(GO) test -race -run 'TestTelemetryAttached|TestSLO|TestRecord|TestMetricsProm|TestWriteProm' ./internal/experiments ./internal/obs ./cmd/harlctl

# doctor runs the diagnosis suite under the race detector: the sketch
# layer and anomaly-detector units, the straggler acceptance over seeds
# 1-3 with its fault-free control, the sketches-on/off differential
# proof (an attached run executes the exact event sequence of a bare
# one), and the doctor CLI golden.
doctor:
	$(GO) test -race ./internal/diagnose ./internal/obs
	$(GO) test -race -run 'TestDoctor|TestSketchAttached|TestFigDoctor|TestSketchFeedsFromServePath|TestQueueGaugesQuiesce' ./internal/experiments ./internal/pfs ./cmd/harlctl

# benchmod vets and tests the benchmark harness. perfbench is its own Go
# module, so the root ./... patterns never compile it; without this step
# a pfs or mpiio API change could break the benchmark unnoticed.
benchmod:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# fuzz runs each native fuzz target for a fixed 5 s: the trace, RST and
# tiered RST parsers (no panic, lossless round trip) and layout.Geometry
# against the fragment-walk oracle. A failing input lands in the package's
# testdata/fuzz directory; commit it as a regression seed.
fuzz:
	$(GO) test -run=NONE -fuzz='^FuzzTraceRead$$' -fuzztime 5s ./internal/trace
	$(GO) test -run=NONE -fuzz='^FuzzReadRST$$' -fuzztime 5s ./internal/harl
	$(GO) test -run=NONE -fuzz='^FuzzReadTieredRST$$' -fuzztime 5s ./internal/harl
	$(GO) test -run=NONE -fuzz='^FuzzGeometryDistribute$$' -fuzztime 5s ./internal/layout

# benchcheck compares fresh measurements against the newest committed
# snapshot (benchguard auto-discovers BENCH_PR<N>.json).
benchcheck:
	$(GO) run ./cmd/benchguard -check

# chaos runs the seeded fault-injection suite under the race detector:
# integrity under chaos, determinism across Parallelism, hedged-read
# tail-latency wins, and the migrate/pfs fault paths.
chaos:
	@CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -run 'Chaos|Hedge|Fault|Flaky|Crash|Restripe|Straggle|Watchdog' ./internal/... \
		|| { echo "chaos suite failed; reproduce with: make chaos CHAOS_SEED=$(CHAOS_SEED)"; exit 1; }

# repl runs the replication suite under the race detector: chain/quorum
# write integrity under replica-targeted crash schedules (seeds 1-3 x
# {crash, double-crash, recovery-overlap} x r in {2,3}), view changes
# and catch-up, the r=1 event-for-event differential against the legacy
# protocol, and the replica/view status CLI.
repl:
	$(GO) test -race -run 'Repl' ./internal/repl ./internal/pfs ./internal/faults ./internal/harl ./internal/cost ./internal/mpiio ./internal/experiments ./cmd/harlctl

# trace is the observability golden check: two same-seed instrumented
# runs must export byte-identical Chrome traces and metrics dumps.
trace:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/harlctl trace -quick -out $$tmp/a.json -metrics-out $$tmp/a.txt >/dev/null && \
	$(GO) run ./cmd/harlctl trace -quick -out $$tmp/b.json -metrics-out $$tmp/b.txt >/dev/null && \
	if cmp -s $$tmp/a.json $$tmp/b.json && cmp -s $$tmp/a.txt $$tmp/b.txt; then \
		echo "trace determinism check passed"; rm -rf $$tmp; \
	else \
		echo "trace determinism check failed: same-seed exports differ"; rm -rf $$tmp; exit 1; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench regenerates the paper figures and refreshes the committed
# benchmark snapshot; use BENCHFLAGS=-short for the reduced scale.
bench:
	$(GO) test -bench=. -benchmem $(BENCHFLAGS) ./...
	$(GO) run ./cmd/benchguard -write -file $(BENCH_FILE)
