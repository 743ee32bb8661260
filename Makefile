GO ?= go

.PHONY: build test vet race fault-stress fuzz-short livebench-test check api-snapshot api-check bench-obs bench-dataplane bench-dataplane-short bench-elastic bench-elastic-multi bench-cache

# Packages whose exported surface is frozen under docs/api/ — changing
# their API requires regenerating the snapshot in the same change.
API_PKGS := \
	repro/internal/driver \
	repro/internal/config \
	repro/internal/head \
	repro/internal/cluster \
	repro/internal/jobs \
	repro/internal/protocol

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Regenerate the exported-API snapshots. Run after an intentional API
# change and commit the diff alongside it.
api-snapshot:
	@mkdir -p docs/api
	@for p in $(API_PKGS); do \
		$(GO) doc -all $$p > docs/api/$$(basename $$p).txt || exit 1; \
	done
	@echo "api snapshots written to docs/api/"

# Fail when any frozen package's `go doc -all` output drifts from its
# snapshot: API changes must be explicit, reviewed diffs.
api-check:
	@fail=0; for p in $(API_PKGS); do \
		snap=docs/api/$$(basename $$p).txt; \
		if ! $(GO) doc -all $$p | diff -u $$snap - ; then \
			echo "exported API of $$p drifted from $$snap (run 'make api-snapshot' and review)"; \
			fail=1; \
		fi; \
	done; exit $$fail

# Fault-injection and session tests, repeated: a kill or fence that fires on
# a racing event instead of a deterministic one shows up here as a failure,
# not as an occasional flake in the full suite.
FAULT_TESTS := Crash|Fence|Retry|Lease|Checkpoint|Reregist|Speculation|Conservation|Checksummed|Session|HandleConnAnswersPipelined
fault-stress:
	$(GO) test -count=20 -run '$(FAULT_TESTS)' ./internal/cluster ./internal/head

# Short fuzzing runs beyond the seed corpora (which `go test` already
# replays): the wire frame decoder and the sparse float64-vector codec, 10 s
# each. Kept out of `check` so the gate stays deterministic.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime=10s ./internal/protocol
	$(GO) test -run '^$$' -fuzz '^FuzzSparseFloat64s$$' -fuzztime=10s ./internal/core

# The live benchmark's own tests (a separate module): tiny smoke runs of the
# deployment over loopback TCP with the WAN delay line, which exercise the
# pipelined head session and the agent's poll-ahead end to end, under the
# race detector.
livebench-test:
	$(GO) -C livebench test -race ./...

# The CI gate: static checks, the API freeze, the full suite under the race
# detector, the repeated fault tests and the live benchmark's tests.
check: vet api-check race fault-stress livebench-test

# Guard the near-free-when-disabled observability promise. The automated
# gate (TestObsOverheadGate) asserts the disabled-Obs alloc overhead on the
# Fig 3 KNN sweep stays under 2%; the benchmarks print the wall-clock
# numbers for human comparison.
bench-obs:
	BENCH_OBS_GATE=1 $(GO) test -count=1 -run TestObsOverheadGate -v .
	$(GO) test -run=NONE -bench 'BenchmarkFig3_KNN$$|BenchmarkFig3_KNN_Obs' -benchtime 50x -count 5 .

# Data-plane numbers for PR 3: the wire-codec chunk roundtrip (gob vs
# binary side by side, with the ≥2× throughput / ≥10× fewer-allocs
# acceptance gates) plus Fig1 real-engine ns/op. Writes BENCH_3.json.
bench-dataplane:
	BENCH_DATAPLANE_OUT=BENCH_3.json $(GO) test -run TestEmitBenchDataplane -v .
	$(GO) test -run=NONE -bench 'BenchmarkWire_ChunkRoundtrip' ./internal/transport

# CI variant: same gates, skips the slower Fig1 engine benchmarks.
bench-dataplane-short:
	BENCH_DATAPLANE_OUT=BENCH_3.json $(GO) test -short -run TestEmitBenchDataplane -v .

# Elasticity must be free when off: TestElasticOverheadGate asserts an inert
# controller hook adds <2% heap allocations to the Fig 3 KNN workload. Then
# the deadline×budget sweep regenerates the cost-vs-makespan frontier on the
# compute-bound app; the CSV lands at ELASTIC_SWEEP_OUT (default
# elastic_sweep.csv) so CI can archive it when the frontier gates fail.
ELASTIC_SWEEP_OUT ?= elastic_sweep.csv
bench-elastic:
	BENCH_ELASTIC_GATE=1 $(GO) test -count=1 -run TestElasticOverheadGate -v .
	$(GO) run ./cmd/cloudburst elastic -app kmeans -short -csv $(ELASTIC_SWEEP_OUT)

# Multi-query arbiter numbers for PR 9: the mixed-policy 3-query workload
# under one session-wide fleet, with the arbiter-vs-simulator cost-agreement
# and deterministic-rerun gates. Writes BENCH_9.json.
bench-elastic-multi:
	BENCH_ELASTIC_MULTI_OUT=BENCH_9.json $(GO) test -count=1 -run TestEmitBenchElasticMulti -v .

# Cache-tier numbers for PR 8: the burst-side partition cache's sim warm
# speedup (≥3× vs an uncached cold pass), warm-pass hit rate, and the
# <2% live-data-plane overhead (one agent, RunAgent) when the cache is
# disabled or inert. Writes BENCH_8.json.
bench-cache:
	BENCH_CACHE_OUT=BENCH_8.json $(GO) test -count=1 -run TestEmitBenchCache -v .
