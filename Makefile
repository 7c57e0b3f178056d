GO ?= go

# Packages with microbenchmarks covering the simulator's hot paths and the
# data plane (workload generation, page cache, index, stats recording,
# absorb merge and open-loop arrival draws).
BENCH_PKGS = ./internal/sim ./internal/slab ./internal/pagecache \
	./internal/kv ./internal/ycsb ./internal/btree ./internal/stats \
	./internal/core ./internal/harness ./internal/hotcache \
	./internal/mvcc ./internal/txn

.PHONY: all build vet fmt-check lint test race race-sim check bench exp-golden harness-golden alloc-budget feature-matrix e2e-smoke crash-sweep trace absorb tier cluster loc

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

# Zero-allocation budgets for the data-plane hot paths (testing.AllocsPerRun
# tests named TestAllocBudget*); a regression here fails the build.
alloc-budget:
	$(GO) test -run AllocBudget ./...

# Every legal combination of the request-path features (absorb, tiering,
# MVCC, no-in-place) against a map model through a stop/reopen/recover cycle
# (DESIGN.md §16); MVCC x tiering is asserted rejected.
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
check: build vet fmt-check lint race-sim harness-golden alloc-budget feature-matrix e2e-smoke crash-sweep race

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
