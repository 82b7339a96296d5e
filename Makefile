GO ?= go

.PHONY: all build test race vet cover fuzz bench bench-evaluate bench-pipeline bench-selector bench-resched bench-service bench-nws bench-json tables clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race coverage, the same packages as CI's Race step: the core package
# holds the worker pool, snapshot, and determinism tests; nws, obs, and
# mstore the forecasting, telemetry, and store paths concurrent rounds
# share; the root package exercises the facade against the same engine.
race:
	$(GO) test -race ./internal/core/... ./internal/nws/... ./internal/obs/... ./internal/mstore/... .

vet:
	$(GO) vet ./...

# Coverage over the decision-critical packages (CI enforces a 70% floor).
cover:
	$(GO) test -coverprofile=cover.out ./internal/core ./internal/nws ./internal/obs ./internal/obs/audit ./internal/mstore
	$(GO) tool cover -func=cover.out | tail -1

# Short fuzz probe of the serialization decoders; the committed corpora
# under testdata/fuzz replay as regular tests on every `make test`.
fuzz:
	$(GO) test -fuzz=FuzzReadPlacement -fuzztime=10s ./internal/partition
	$(GO) test -fuzz=FuzzReadSnapshot -fuzztime=10s ./internal/nws
	$(GO) test -fuzz=FuzzSegmentDecode -fuzztime=10s ./internal/mstore

# Full reproduction benchmarks (paper figures + ablations).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Candidate-evaluation engine sweep only: pool size x evaluation mode.
bench-evaluate:
	$(GO) test -bench=BenchmarkEvaluate -benchmem -benchtime=3x .

# Pipeline-blueprint evaluation sweep: pool size x worker-pool width,
# through the same shared Coordinator as bench-evaluate.
bench-pipeline:
	$(GO) test -bench=BenchmarkPipelineEvaluate -benchmem -benchtime=3x .

# Selector-family sweep past the 2^n wall: 128/512/2048-host grids
# under exhaustive, greedy, beam, and LP+GA selection.
bench-selector:
	$(GO) test -bench=BenchmarkSelect -benchmem -benchtime=3x -run '^$$' .

# Delta-aware rescheduling loop: full per-tick round vs session cold
# start vs one-host delta vs quiescent steady state (which must report
# 0 allocs/op — the gate TestSessionSteadyStateAllocFree enforces).
bench-resched:
	$(GO) test -bench=BenchmarkResched -benchmem -benchtime=3x -run '^$$' .

# Multi-tenant serving: 64 agents round-robin through one SchedService,
# copy-on-write snapshot sharing, greedy vs exhaustive selection.
bench-service:
	$(GO) test -bench=BenchmarkService -benchmem -benchtime=3x -run '^$$' .

# NWS sensing hot path: bank update sweep (window x legacy/incremental)
# and full-service sweep cost at 100/1k/10k watched series.
bench-nws:
	$(GO) test -bench='BenchmarkBankUpdate|BenchmarkServiceTick' -benchmem -run '^$$' ./internal/nws

# Headline sweeps (candidate evaluation + NWS bank update) as machine-
# readable JSON, for diffing performance across revisions.
bench-json:
	$(GO) run ./cmd/benchjson -o BENCH_sched.json

# Paper-style tables via the experiment driver.
tables:
	$(GO) run ./cmd/expt -quick

clean:
	$(GO) clean ./...
