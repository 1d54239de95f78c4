GO ?= go

.PHONY: all tier1 tier2 race stress chaos bench-vectorize bench-alloc bench-overlap bench-parity bench-rescache bench-iosched profile-smoke clean

all: tier1

# Tier-1 gate: everything must be gofmt-clean, build, vet clean, and pass
# tests, and all 22 TPC-H results must match the benchmark's committed
# reference answers (perfbench is a separate module, so ./... skips it).
tier1:
	test -z "$$(gofmt -l .)"
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) -C perfbench vet ./... && $(GO) -C perfbench test -count=1 -run 'TestReference|TestWrongResultCounted' ./...

# Tier-2 gate: the slow suites tier1 deliberately leaves out — the chaos
# harness (seeded fault schedules under the race detector, including the
# silent-corruption and device-loss scenarios) and the committed performance
# gates (allocation, phase-2 overlap, spill-integrity tax, result reuse,
# shared I/O scheduler).
tier2: chaos bench-alloc bench-overlap bench-parity bench-rescache bench-iosched

# Race-detector pass over the concurrency-heavy packages (morsel workers,
# partition spilling, per-worker stats accumulators, span buffers, fault
# recovery, utilization tracer).
race:
	$(GO) test -race -short ./internal/exec/ ./internal/core/ ./internal/chaos/ ./internal/trace/ ./internal/metrics/

# Multi-query stress gate: concurrent TPC-H mixes through the admission
# governor and per-query spill leases, under the race detector — overlap
# regression, 8-query stress, admission cancel/timeout, catalog races,
# governor unit races, concurrent queries under injected faults, and the
# mixed-class I/O-scheduler chaos scenario (spill device death plus latency
# spikes on both arrays under an 8-way scan/spill query mix). Each
# run re-verifies that concurrent results stay bit-identical to serial
# runs and that the spill array and governor drain to zero.
stress:
	$(GO) test -race -count=1 -timeout 300s \
		-run 'TestOverlapping|TestConcurrent|TestAdmission|TestCatalog' .
	$(GO) test -race -count=1 -timeout 300s -run 'TestGovernor' ./internal/pages/
	$(GO) test -race -count=1 -timeout 300s -run 'TestConcurrentQueriesUnderTransientFaults|TestMixedClassLoadUnderDeviceChaos|TestLease' \
		./internal/chaos/ ./internal/nvmesim/

# Observability smoke test: a spilling TPC-H Q9 with the per-operator
# profile tree, plus the profile/endpoint regression tests.
profile-smoke:
	$(GO) test -run 'TestProfile|TestServeDuringQuery' -count=1 -v .
	$(GO) run ./cmd/spillyquery -q 9 -sf 0.01 -budget 524288 -profile

# Chaos suite: TPC-H under seeded fault schedules (transient I/O errors,
# latency spikes, device death, spill-capacity exhaustion, cancellation),
# under the race detector. Fault schedules derive from fixed seeds, so a
# failure replays deterministically.
chaos:
	$(GO) test -race -count=1 -v ./internal/chaos/

# Vectorization microbenchmarks (expression kernels, batch hash/encode).
bench-vectorize:
	$(GO) test -run=^$$ -bench 'Vectorized|Scalar|HashColumns|HashRow|EncodeAll|EncodeRow' -benchmem ./internal/exec/ ./internal/data/

# GC-pressure gate: allocation-count regression tests (also in tier1),
# -benchmem microbenchmarks over the recycling hot path, and the
# end-to-end allocs/op comparison against the committed baseline
# (BENCH_alloc.json; fails on >20% allocs/op regression).
bench-alloc:
	$(GO) test -run 'TestAllocs' -count=1 ./internal/data/ ./internal/exec/
	$(GO) test -run=^$$ -bench 'Alloc' -benchmem ./internal/data/ ./internal/exec/
	$(GO) run ./cmd/alloccmp -baseline BENCH_alloc.json

# Phase-2 overlap gate: the blocking-vs-pipelined readback report, then the
# stall-time comparison against the committed baseline (BENCH_overlap.json;
# fails on >20% pipelined stall ns/op regression or a cross-mode result
# checksum mismatch).
bench-overlap:
	$(GO) run ./cmd/spillybench -exp overlap
	$(GO) run ./cmd/overlapcmp -baseline BENCH_overlap.json

# Result-reuse gate: the cold/warm-memory/warm-nvme/post-invalidation
# report, then the warm-hit latency comparison against the committed
# baseline (BENCH_rescache.json; fails on a warm-hit regression beyond 20%
# plus an absolute jitter slack, any cross-phase result checksum mismatch,
# or a warm phase that fails to hit the cache at all).
bench-rescache:
	$(GO) run ./cmd/spillybench -exp rescache
	$(GO) run ./cmd/rescachecmp -baseline BENCH_rescache.json

# Shared I/O scheduler gate: the 8-way mixed-class concurrency report
# (private rings vs the engine-wide prioritized scheduler), then the
# demand-read latency and p99 query latency comparison against the
# committed baseline (BENCH_iosched.json; fails on >25% shared-mode
# regression, a cross-mode result checksum mismatch, or a baseline that no
# longer shows the scheduler ahead of private rings).
bench-iosched:
	$(GO) run ./cmd/spillybench -exp iosched
	$(GO) run ./cmd/ioschedcmp -baseline BENCH_iosched.json

# Spill-integrity gate: the parity-off-vs-on report on the spill-heavy
# queries, then the self-relative wall-time comparison (no committed
# baseline needed; fails when checksummed+parity spilling costs >10% wall
# time geo-mean or changes any result fingerprint).
bench-parity:
	$(GO) run ./cmd/spillybench -exp parity
	$(GO) run ./cmd/paritycmp

clean:
	$(GO) clean ./...
