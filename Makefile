GO ?= go

.PHONY: tier1 build test race vet lint docs-check fuzz-smoke bench bench-smoke bench-check bench-record bench-compare loadtest-smoke clean

# tier1 is the repo's gate: every PR must leave it green.
tier1: vet lint docs-check build race fuzz-smoke bench-smoke bench-check bench-compare loadtest-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs both repo-convention checks (tools/lint): package-comment
# paper anchors and the no-telemetry-on-stdout rule for the CLIs. It
# then fails if gofmt would reformat any .go file in the tree.
lint:
	$(GO) run ./tools/lint
	@out="$$("$$($(GO) env GOROOT)/bin/gofmt" -l .)"; \
	if [ -n "$$out" ]; then echo "lint: gofmt -l lists files to format with gofmt -w:" >&2; echo "$$out" >&2; exit 1; fi

# docs-check verifies every internal package comment anchors the code to
# the paper (Section/Figure/Table/Algorithm N) — the godoc contract.
docs-check:
	$(GO) run ./tools/lint -docs

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short deterministic-ish fuzz smoke over the binary codecs: every
# decoder (instruction traces, mlpcache.events/v2 event streams, and
# mlpcache.model/v1 learned-model files) must survive arbitrary bytes,
# and encode→decode must round-trip. FuzzReadBatch holds the batched
# Mix/Phases/Limit path to the per-instruction reference interleavers
# under random trees and draw schedules. FuzzConfig runs short
# simulations of random machine configurations: each must run or be
# rejected with ErrBadConfig, never panic.
fuzz-smoke:
	$(GO) test ./internal/trace/ -run '^$$' -fuzz FuzzTraceDecode -fuzztime 5s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz FuzzTraceRoundTrip -fuzztime 5s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz FuzzReadBatch -fuzztime 5s
	$(GO) test ./internal/metrics/ -run '^$$' -fuzz FuzzEventsV2Decode -fuzztime 5s
	$(GO) test ./internal/learn/ -run '^$$' -fuzz FuzzModelDecode -fuzztime 5s
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzConfig -fuzztime 5s

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-smoke runs the observability, tracing, oracle, multi-core,
# learned-eviction and arena benchmarks, and the per-layer
# microbenchmarks (the core's BenchmarkWindow, the L2 tag store and
# policies' BenchmarkL2Access, each model's instruction supply in
# BenchmarkSupply, the MSHR cost paths in BenchmarkMSHR, the fill heap's
# BenchmarkFillHeap, the DRAM model's BenchmarkDRAM and the block table's
# BenchmarkPutGetDelete), once each and fails if any stops being selected — a renamed or deleted
# benchmark silently vanishes from `go test -bench`, so the output is
# grepped for each name.
bench-smoke:
	@out="$$($(GO) test -bench 'BenchmarkObservability|BenchmarkTracingV2|BenchmarkOracleHeadroom|BenchmarkMulticoreThroughput|BenchmarkLearnedEviction|BenchmarkArenaReuse' -benchtime 1x -run '^$$' .)"; \
	echo "$$out"; \
	for name in BenchmarkObservability BenchmarkTracingV2 BenchmarkOracleHeadroom BenchmarkMulticoreThroughput BenchmarkLearnedEviction BenchmarkArenaReuse; do \
		echo "$$out" | grep -q "$$name" || { echo "bench-smoke: $$name missing from benchmark output" >&2; exit 1; }; \
	done
	@out="$$($(GO) test -bench 'BenchmarkWindow' -benchtime 1x -run '^$$' ./internal/cpu)"; \
	echo "$$out"; \
	for name in BenchmarkWindow/resident BenchmarkWindow/chase; do \
		echo "$$out" | grep -q "$$name" || { echo "bench-smoke: $$name missing from benchmark output" >&2; exit 1; }; \
	done
	@out="$$($(GO) test -bench 'BenchmarkL2Access' -benchtime 1x -run '^$$' ./internal/core)"; \
	echo "$$out"; \
	for name in BenchmarkL2Access/lru BenchmarkL2Access/lin4 BenchmarkL2Access/sbar; do \
		echo "$$out" | grep -q "$$name" || { echo "bench-smoke: $$name missing from benchmark output" >&2; exit 1; }; \
	done
	@out="$$($(GO) test -bench 'BenchmarkSupply' -benchtime 1x -run '^$$' ./internal/workload)"; \
	echo "$$out"; \
	for name in BenchmarkSupply/mcf BenchmarkSupply/equake BenchmarkSupply/twolf BenchmarkSupply/bzip2; do \
		echo "$$out" | grep -q "$$name" || { echo "bench-smoke: $$name missing from benchmark output" >&2; exit 1; }; \
	done
	@out="$$($(GO) test -bench 'BenchmarkMSHR' -benchtime 1x -run '^$$' ./internal/mshr)"; \
	echo "$$out"; \
	for name in BenchmarkMSHR/exact BenchmarkMSHR/adders; do \
		echo "$$out" | grep -q "$$name" || { echo "bench-smoke: $$name missing from benchmark output" >&2; exit 1; }; \
	done
	@out="$$($(GO) test -bench 'BenchmarkFillHeap' -benchtime 1x -run '^$$' ./internal/sim)"; \
	echo "$$out"; \
	echo "$$out" | grep -q "BenchmarkFillHeap" || { echo "bench-smoke: BenchmarkFillHeap missing from benchmark output" >&2; exit 1; }
	@out="$$($(GO) test -bench 'BenchmarkDRAM' -benchtime 1x -run '^$$' ./internal/dram)"; \
	echo "$$out"; \
	echo "$$out" | grep -q "BenchmarkDRAM" || { echo "bench-smoke: BenchmarkDRAM missing from benchmark output" >&2; exit 1; }
	@out="$$($(GO) test -bench 'BenchmarkPutGetDelete' -benchtime 1x -run '^$$' ./internal/blockmap)"; \
	echo "$$out"; \
	echo "$$out" | grep -q "BenchmarkPutGetDelete" || { echo "bench-smoke: BenchmarkPutGetDelete missing from benchmark output" >&2; exit 1; }

# bench-check runs one pass of every repository-benchmark workload
# (bench/README.md) at seed 42 and fails unless the final aggregate line
# reports every operation correct. The canary and the seed-42 digest
# pins in bench/digests.json make this a bit-identity check of the whole
# simulator: any change to simulated results fails it.
bench-check:
	@out="$$(bash bench/run.sh --workload all --seed 42 --seconds 1 --trace 0)" || exit 1; \
	last="$$(echo "$$out" | tail -n 1)"; \
	echo "$$last"; \
	echo "$$last" | grep -q '"correct":true' && echo "$$last" | grep -Eq '"failed":0[,}]' || \
		{ echo "bench-check: the benchmark reported failed operations" >&2; exit 1; }

# bench-record snapshots the perf-trajectory suite into BENCH_PR10.json
# (instr/s, host-calibrated instr/s, ns/op, allocs/op per benchmark;
# medians of eight passes). The snapshot is committed so bench-compare
# has a fixed reference; the pre_pr5_baseline and prior_baselines
# sections already in the file (the PR 5-9 snapshots) are preserved, so
# the cross-PR trajectory stays in one document.
bench-record:
	$(GO) run ./tools/benchjson -record -out BENCH_PR10.json

# bench-compare re-runs the suite and fails on a >10% drop in instr/s
# calibrated by a reference loop timed around each benchmark, relative
# to the suite-wide median ratio (shared-host speed drifts move every
# wall-clock figure — only drops *away from the pack* indicate a code
# regression), a >20% allocs/op growth against the committed snapshot,
# a v2-traced run allocating more than 2x an untraced one, a
# learned-policy run allocating more than 1.5x the LRU baseline, or an
# arena-reused run allocating more than 0.5x a cold one (see
# docs/PERFORMANCE.md for the contract). Part of tier1. Medians of 8
# separate suite passes on both sides, so each benchmark's samples are
# spread across the run's wall time.
bench-compare:
	$(GO) run ./tools/benchjson -compare -baseline BENCH_PR10.json

# loadtest-smoke fires a short chaos burst at an in-process sweep
# service (tools/loadgen): every job must come back with a terminal
# answer and the daemon's counters must reconcile, or loadgen exits 1.
loadtest-smoke:
	$(GO) run ./tools/loadgen -jobs 60 -concurrency 12 -n 10000 -chaos-fail 150 -chaos-panic 20

clean:
	$(GO) clean ./...
