# Single source of truth for the build-and-verify loop: CI runs
# exactly these targets, so "works in CI" and "works locally" mean
# the same commands.

GO ?= go

# Perf-trajectory artifact name; tracks the PR sequence so successive
# baselines never overwrite each other in the artifact history.
BENCH_OUT ?= BENCH_14.json

.PHONY: all build test test-race bench bench-smoke bench-json bench-scale bench-delta fmt fmt-check vet lint fuzz-smoke chaos jobs-stress metrics-smoke docs-check perfbench-check ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Full benchmark sweep (slow; regenerates every paper experiment).
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# One iteration per benchmark: proves they still run, in CI time.
# -bench=. sweeps everything, including the E14 bitmap-intersect /
# E15 parallel-cells pair guarding the selection-representation work
# and the E16 chunked-scan benchmark guarding the chunked storage
# path. (E17 self-skips without CHARLES_SCALE.)
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Perf trajectory: the bench-smoke set with -benchmem, recorded as
# op → ns/op + B/op + allocs/op JSON. CI uploads $(BENCH_OUT) as an
# artifact so future PRs have a baseline to diff against. Two steps,
# not a pipe: a pipe would report the converter's exit status and let
# a failing benchmark slip through the CI gate.
bench-json:
	$(GO) test -run=NONE -bench=. -benchtime=1x -benchmem ./... > bench-smoke.out
	$(GO) run ./cmd/charles-benchjson < bench-smoke.out > $(BENCH_OUT)
	@rm -f bench-smoke.out

# Incremental-advise smoke: one E21 delta benchmark iteration proves
# the cold/warm pair still runs, and the env-gated E21 test enforces
# the conservative CI-safe floor (warm re-advise after a 1% append at
# least 5x faster than cold). CHARLES_DELTA_GATE=10 checks the
# paper-facing 10x claim on a quiet machine.
bench-delta:
	$(GO) test -run=NONE -bench=BenchmarkE21DeltaAdvise -benchtime=1x .
	CHARLES_DELTA_GATE=1 $(GO) test -run='TestE21DeltaAdviseGate' -v -timeout=15m .

# The 10M-row scale comparison (E17) plus the 1M-row chunked scan
# (E16), locally: generates ~10M rows of VOC (several hundred MB),
# so it is not part of CI. Expect minutes on first run.
bench-scale:
	CHARLES_SCALE=1 $(GO) test -run=NONE -bench='E16ChunkedScan|E17ScaleAdvise' -benchtime=1x -timeout=30m .

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Invariant lint: the repo's own analyzers (internal/lint, run via
# cmd/charles-lint) machine-check the engine's load-bearing
# guarantees — see docs/ARCHITECTURE.md for the analyzer ↔ invariant
# table. staticcheck and govulncheck join the gate when installed;
# they are optional so the target works in offline sandboxes where
# only the toolchain itself is available.
lint:
	$(GO) run ./cmd/charles-lint
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else echo "govulncheck not installed; skipping"; fi

# Short native-fuzz pass over the .chc parsers and the engine's
# dictionary-code set kernels (checked against a map oracle): enough
# budget to exercise the mutators on every seed class, small enough
# for CI. The exec-denominated minimize budget keeps a newly found
# interesting input from eating the wall-clock budget.
fuzz-smoke:
	$(GO) test ./internal/colfile -run=NONE -fuzz=FuzzReadPage -fuzztime=20s -fuzzminimizetime=30x
	$(GO) test ./internal/colfile -run=NONE -fuzz=FuzzOpenColumnFile -fuzztime=20s -fuzzminimizetime=30x
	$(GO) test ./internal/engine -run=NONE -fuzz=FuzzCodeSetFilter -fuzztime=20s -fuzzminimizetime=30x

# Chaos gate: the failpoint suite under the race detector. Every
# TestChaos* test arms an internal/fault failpoint (catalogue in
# docs/ROBUSTNESS.md) and requires a descriptive error or a contained
# panic — never a crash — plus byte-identical advise output once the
# fault is disarmed.
chaos:
	$(GO) test -race -run 'TestChaos' ./...

# Jobs stress gate: the two queue tests that once raced a job's
# published state against the running count, repeated under the race
# detector so a reintroduced ordering bug shows up as a failure
# rather than an occasional flake.
jobs-stress:
	$(GO) test -race -count=20 -run 'TestQueueBackpressure|TestJobLifecycle' ./internal/jobs

# Observability gate: boot a real charles-server, run one advise, and
# require /healthz + /metrics to answer 200 with every layer's metric
# families present (scripts/metrics_smoke.sh).
metrics-smoke:
	sh scripts/metrics_smoke.sh

# Documentation gate: relative markdown links in README + docs/ must
# resolve, and every §N the colfile code cites must be a heading in
# docs/FORMAT.md (the spec's numbering is load-bearing).
docs-check:
	$(GO) test -run='TestDocs' .

# Benchmark gate: perfbench/ is a nested module (charles/perfbench)
# that the root `./...` patterns skip, so an engine export it imports
# could be deleted with every other gate green. Vet and test it from
# its own root.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

ci: fmt-check vet lint build test-race chaos jobs-stress fuzz-smoke metrics-smoke docs-check perfbench-check bench-json bench-delta
