GO ?= go

# Packages with microbenchmarks covering the simulator's hot paths and the
# data plane (workload generation, page cache, index, stats recording,
# absorb merge, open-loop arrival draws, the in-memory page store and
# replication's page round trip).
BENCH_PKGS = ./internal/sim ./internal/slab ./internal/pagecache \
	./internal/kv ./internal/ycsb ./internal/btree ./internal/stats \
	./internal/core ./internal/harness ./internal/hotcache \
	./internal/mvcc ./internal/txn ./internal/device ./internal/cluster

.PHONY: all build vet fmt-check lint test race race-sim check bench exp-golden harness-golden alloc-budget feature-matrix e2e-smoke e2e-exact examples-smoke crash-sweep trace absorb tier cluster loc

# Crash sweep knobs: SEED picks the deterministic schedule (a CI failure
# prints the seed to rerun here), K is points per engine, ENGINE narrows to
# one engine (kvell, rocks, pebbles, wt, toku) or all.
SEED ?= 1
K ?= 25
ENGINE ?= all

# Write-absorption sweep knobs (`make absorb`): comma-separated arrival
# rates (ops per virtual second) and zipfian skews.
RATE ?= 100000,1000000
SKEW ?= 0.6,0.99

# Tiering sweep knobs (`make tier`): comma-separated zipfian skews and
# hot-tier sizes in MB (0 = tiering off).
THETA ?= 0.6,0.99
CACHEMB ?= 0,1.5,4,24

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails if any file is not gofmt-clean (gofmt -l prints offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Determinism lint suite (see DESIGN.md "Determinism invariants").
lint:
	$(GO) run ./cmd/kvell-lint ./...

test:
	$(GO) test ./...

# The race detector slows the simulator ~5x; the harness suite needs more
# than go test's default 10m package timeout.
race:
	$(GO) test -race -timeout 45m ./...

# The sim kernel alone under the race detector, repeated: about a second per
# run, so a kernel race is reported before the full race suite gets to it.
race-sim:
	$(GO) test -race -count=5 ./internal/sim

# Allocation budgets for the data-plane hot paths and whole runs (the tests
# named TestAllocBudget*): testing.AllocsPerRun around one operation, or
# runtime.MemStats deltas over a run or a set-up, per operation or per loaded
# item; a regression here fails the build.
alloc-budget:
	$(GO) test -run AllocBudget ./...

# All 64 subsets of the request-path features and ablations (absorb,
# tiering, MVCC, no-in-place, shared-everything, commit log) against a map
# model through a stop/reopen/recover cycle (DESIGN.md §16).
feature-matrix:
	$(GO) test -run TestFeatureMatrix -count=1 ./internal/core

# Every pinned schedule of internal/harness — the engine, crash, transaction,
# cluster, absorb, tiered and arrival-generator digests and the nine cheapest
# experiments' output — in well under the suite's 40 s: the inner loop of a
# harness refactor, which is correct iff none of them moves. Adding
# -update-golden to the same command re-records every one of them.
harness-golden:
	$(GO) test -count=1 -run 'Golden|TestCheapExperimentsProduceOutput' ./internal/harness

# cmd/kvell-e2e (the BENCHMARK.json driver) is a module of its own, so the
# root ./... patterns never compile it; this keeps a harness signature change
# from breaking the benchmark unseen.
e2e-smoke:
	$(GO) vet -C cmd/kvell-e2e ./...
	$(GO) test -C cmd/kvell-e2e ./...

# The exact columns of the end-to-end benchmark: one short run (seed 1, 0.5 s)
# of each BENCHMARK.json workload, whose `correct`, `goodput_share` and
# virtual-time metrics, copied as printed, must equal results/e2e_exact.txt.
# They are pure functions of the code, so a change that moves them has moved
# the modelled store. `make e2e-exact UPDATE=1` re-records the file.
# openloop_absorb_hot runs for 1 s, so that its `correct` checks its 1 ms p99
# limit: its caches start cold, the store serves fewer than the 800K
# arrivals/s until they warm, and the backlog that builds drains only about
# 50 ms of virtual time in, past the end of a 0.5 s run's window (p99 4.2 ms
# there, 0.2 ms at 1 s).
E2E_WORKLOADS = ycsb_a_uniform ycsb_c_zipf ycsb_e_scan openloop_absorb_hot cluster_rf2 txn_bank

e2e-exact:
	@set -e; got="$$(mktemp)"; log="$$(mktemp)"; trap 'rm -f "$$got" "$$log"' EXIT; \
	for w in $(E2E_WORKLOADS); do \
		secs=0.5; if [ "$$w" = openloop_absorb_hot ]; then secs=1; fi; \
		line="$$(bash cmd/kvell-e2e/bench.sh --workload $$w --seed 1 --seconds $$secs --trace 0 2>>"$$log" | tail -n 1)"; \
		printf '%s' "$$w"; \
		for m in correct goodput_share v_ops_per_s v_lat_mean_us v_lat_p99_us; do \
			printf ' %s=%s' "$$m" "$$(printf '%s' "$$line" | sed -nE "s/.*\"$$m\":(\{\"value\":)?([^,}]*).*/\2/p")"; \
		done; echo; \
	done > "$$got"; \
	if [ -n "$(UPDATE)" ]; then cp "$$got" results/e2e_exact.txt; cat results/e2e_exact.txt; \
	elif diff -u results/e2e_exact.txt "$$got"; then \
		echo "e2e-exact: all $$(wc -l < "$$got") workloads identical to results/e2e_exact.txt"; \
	else cat "$$log"; echo "e2e-exact: results/e2e_exact.txt moved (make e2e-exact UPDATE=1 re-records it)"; exit 1; fi

# The examples and the kvell CLI have no tests of their own: each example
# must run to completion, and the CLI must put, get, scan, delete and print
# stats on a temporary store, its get printing the value just put.
examples-smoke:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/recovery
	$(GO) run ./examples/simulate
	$(GO) run ./examples/ycsb -records 2000 -ops 5000
	@set -e; dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/kvell" ./cmd/kvell; \
	kv() { "$$dir/kvell" -db "$$dir/smoke.kvell" "$$@"; }; \
	kv put smoke-key smoke-value; \
	got="$$(kv get smoke-key)"; \
	if [ "$$got" != smoke-value ]; then \
		echo "kvell get printed '$$got', want smoke-value"; exit 1; fi; \
	kv scan smoke 10; kv del smoke-key; kv stats; \
	echo "examples-smoke: kvell put/get/scan/del/stats ok"

# Crash–recover–verify sweep (see DESIGN.md §9): kills each engine at K
# seeded points under load, reboots on the power-loss disk images, verifies
# no acknowledged write was lost and no torn value surfaced. Deterministic
# per SEED; a failing point prints its exact repro flags.
crash-sweep:
	$(GO) run ./cmd/kvell-bench crash -engine $(ENGINE) -k $(K) -seed $(SEED)

# Write-absorption sweep (see DESIGN.md §11): open-loop update-only Zipfian
# workloads across SKEW x RATE x commit interval; reports device-write
# reduction, goodput and tail latency per cell. Deterministic per SEED.
absorb:
	$(GO) run ./cmd/kvell-bench absorb -quick -parallel 0 -seed $(SEED) -rate $(RATE) -skew $(SKEW)

# Hot/cold tiering sweep (see DESIGN.md §12): open-loop read-mostly Zipfian
# workloads on the slow cold-SSD profile across THETA x CACHEMB; reports
# goodput, tail latency and the memory-hit-rate regimes per cell.
# Deterministic per SEED.
tier:
	$(GO) run ./cmd/kvell-bench tier -quick -parallel 0 -seed $(SEED) -theta $(THETA) -cachemb $(CACHEMB)

# Cluster sweep knobs (`make cluster`): comma-separated machine counts and
# the replication factor for the failover run.
MACHINES ?= 1,2,4,8
KILLRF ?= 2

# Multi-machine cluster experiment (see DESIGN.md §13): weak-scaling YCSB
# sweep over MACHINES sharded KVell servers on a simulated 10GbE fabric,
# then a kill-one-shard failover run at RF=$(KILLRF) verifying no
# acknowledged write is lost. Deterministic per SEED; digests printed per
# run. `make cluster MACHINES=1,2,4 SEED=7` reproduces any CI row exactly.
cluster:
	$(GO) run ./cmd/kvell-bench cluster -machines $(MACHINES) -seed $(SEED) -failover-rf $(KILLRF)

# Traced runs (see DESIGN.md §10): writes Chrome trace JSON (Perfetto) and
# per-component latency breakdown tables for an LSM and a KVell run into
# results/trace/. Deterministic per SEED.
trace:
	mkdir -p results/trace
	$(GO) run ./cmd/kvell-bench trace -engine rocksdb,kvell -seed $(SEED) -o results/trace

# Go line counts, non-test and test, per package directory — counted the way
# ROADMAP's "Largest non-test packages" list and the issues count them: every
# .go file under the directory (sub-packages and analyzer fixtures included),
# comments and blanks too. `root module` is everything the root go.mod builds
# (cmd/kvell-e2e is a module of its own); `whole tree` adds it back.
loc:
	@row() { name="$$1"; shift; printf '%-22s %9d %9d\n' "$$name" \
		"$$(find "$$@" -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)" \
		"$$(find "$$@" -name '*.go' -name '*_test.go' | xargs cat | wc -l)"; }; \
	printf '%-22s %9s %9s\n' package non-test test; \
	for p in internal/* cmd/* examples; do row "$$p" "$$p"; done; \
	row '. (package kvell)' . -maxdepth 1; \
	row 'root module' . -not -path './cmd/kvell-e2e/*'; \
	row 'whole tree' .

# Everything CI runs, in the same order.
check: build vet fmt-check lint race-sim harness-golden alloc-budget feature-matrix examples-smoke e2e-smoke e2e-exact crash-sweep race

# Runs the kernel/allocator/page-cache microbenchmarks and prints plain
# `go test -bench -benchmem` output, which benchstat reads: save one run per
# commit and compare the files. Raw nanoseconds from different days or VMs
# are not comparable; the before/after flow with bounds, seeds and reference
# adjustment is `kvell-e2e compare`, and the allocation gate is alloc-budget.
bench:
	$(GO) test -run '^$$' -bench . -benchmem $(BENCH_PKGS)

# The full experiment oracle (about ten minutes): reruns every registered
# experiment in quick mode at the CLI's default seed (42), replaces each
# wall-clock footer by a fixed token so the output is a pure function of the
# code, and compares it with the recorded results/quick.txt; on a mismatch it
# names the first differing section and shows the diff. The nine cheapest
# sections are also compared in tier-1 (TestCheapExperimentsProduceOutput).
# After a change that is meant to move an experiment's numbers, copy
# results/nightly/experiments.txt over results/quick.txt and update
# EXPERIMENTS.md.
exp-golden:
	@mkdir -p results/nightly
	$(GO) run ./cmd/kvell-bench -exp all -quick -parallel 0 \
		| sed -E 's/^---- \(.* wall\) ----$$/---- (wall) ----/' > results/nightly/experiments.txt
	@out=results/nightly/experiments.txt; \
	if cmp -s results/quick.txt $$out; then \
		echo "exp-golden: all $$(grep -c '^==== ' $$out) sections identical to results/quick.txt"; \
	else \
		echo "exp-golden: first difference in section:"; \
		awk 'NR==FNR {want[FNR]=$$0; next} /^==== / {sec=$$0} want[FNR]!=$$0 {exit} END {print sec}' \
			results/quick.txt $$out; \
		diff results/quick.txt $$out | head -n 40; exit 1; fi
