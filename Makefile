# gputlb — build and test entry points.
#
#   make            vet + build + test (the tier-1 gate)
#   make ci         everything CI runs: vet, build, race-detector suite,
#                   the decoder fuzz seed corpus, docs lint, the
#                   benchmark self-test and the mechanism smoke
#   make test-race  full suite under the race detector
#   make bench      regenerate every figure at experiment scale
#   make bench-json refresh BENCH_sim.json (wall-clock + allocs/op) on this
#                   machine; commit the result alongside perf-sensitive changes.
#                   Measures the in-process simulator path only — the gputlbd
#                   service layer sits above it and does not affect these numbers
#   make perf-smoke cheap allocation-regression gate against the committed
#                   BENCH_sim.json (no wall-clock comparison, CI-safe)
#   make multi-smoke run a small multi-tenant co-run grid end to end — the
#                   quick check that ASID plumbing, tenant partitioning and
#                   the interference reporting still hold together
#   make controller-smoke run the tenant-churn grid (controller included)
#                   end to end on the sharded engine under the race detector
#   make mech-smoke run the translation-mechanism study (sub-entry sharing,
#                   dead-entry prediction, contiguity-aware large-reach) end
#                   to end on the sharded + sliced engine under the race
#                   detector
#   make fabric-smoke run the distributed-sweep drill under the race
#                   detector: a coordinator with two in-process workers,
#                   one killed mid-job, asserting the result file is
#                   byte-identical to a single-daemon run
#   make fuzz       a short decoder fuzz run
#   make golden     refresh the golden stats snapshots (serial and sliced)
#                   after an intentional timing-model change (inspect the
#                   diff before committing)
#   make golden-update regenerate every golden pin in one command: the
#                   serial and sliced golden stats snapshots plus the
#                   BENCH_sim.json perf ledger
#   make bench-selftest run the repository benchmark's own tests
#                   (gpubench/, a separate module): they replay the
#                   internal APIs the benchmark drives, so an API change
#                   that would break the benchmark fails here
#   make docs-lint  fail on undocumented exported identifiers, internal
#                   packages missing a doc.go package comment, and HTTP
#                   routes missing from OPERATIONS.md

GO ?= go

.PHONY: all build vet test test-race bench bench-json bench-selftest perf-smoke multi-smoke controller-smoke mech-smoke fabric-smoke fuzz fuzz-seeds golden golden-update docs-lint ci

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Both suite targets shuffle test order so inter-test state leaks surface
# in CI instead of in a refactor six months later.
test:
	$(GO) test -shuffle=on ./...

test-race:
	$(GO) test -race -shuffle=on ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

bench-json:
	$(GO) run ./cmd/perfgate -o BENCH_sim.json

# perf-smoke skips the Eval-sweep wall-clock measurement (machine-dependent)
# and gates allocs per simulated instruction (fails on >2x vs the committed
# numbers), a coarse per-instruction time band (fails on >3x the committed
# ns/inst — wide enough for machine noise, tight enough to catch a hot-path
# blowup), and the sharded engine's shard-vs-barrier work split (fails if the
# parallel fraction or its Amdahl projection drop below the pinned floors).
perf-smoke:
	$(GO) run ./cmd/perfgate -check -skip-sweep -o BENCH_sim.json

# multi-smoke exercises the multi-tenant path end to end at a small scale:
# one benchmark pair across the full {TLB mode} x {SM assignment} grid, on
# the sharded intra-cell engine with the address-sliced barrier under the
# race detector — the quick check that the epoch-barrier protocol and the
# concurrent per-slice passes stay race-clean on the full tenancy grid.
multi-smoke:
	$(GO) run -race ./cmd/evaluate -fig multi -bench bfs,atax -scale 0.1 -cell-parallel 8 -l2-slices 4

# controller-smoke exercises the closed-loop partitioning controller under
# tenant churn end to end: every L2 TLB tenancy mode — the online controller
# included — with mid-run arrivals through the bounded admission queue, on
# the sharded intra-cell engine with the address-sliced barrier under the
# race detector.
controller-smoke:
	$(GO) run -race ./cmd/evaluate -fig churn -bench bfs,atax -scale 0.1 -cell-parallel 8 -l2-slices 4

# mech-smoke exercises the pluggable translation mechanisms end to end: every
# mechanism (base, subentry, deadblock, largereach + the contig allocator)
# solo and on a shared-L2 co-run, through the evaluate CLI, on the sharded
# intra-cell engine with the address-sliced barrier under the race detector.
mech-smoke:
	$(GO) run -race ./cmd/evaluate -fig mech -bench bfs,atax -scale 0.1 -cell-parallel 4 -l2-slices 2

# fabric-smoke is the distributed-sweep drill: coordinator + two
# in-process workers over real HTTP, one worker killed mid-job (dispatch
# failures, heartbeat expiry, re-dispatch of unacked cells), and the
# survivor still delivers a result file byte-identical to a
# single-daemon run — all under the race detector.
fabric-smoke:
	$(GO) test -race -count=1 -run TestFabricSmoke ./internal/fabric/

fuzz:
	$(GO) test -fuzz FuzzReadKernel -fuzztime 10s ./internal/trace/

# fuzz-seeds replays only the checked-in seed corpus (no mutation budget),
# which is deterministic and fast enough for every CI run.
fuzz-seeds:
	$(GO) test -run FuzzReadKernel ./internal/trace/

# golden refreshes both stats snapshots: -run TestGoldenStats matches the
# serial pin (TestGoldenStats) and the address-sliced pin
# (TestGoldenStatsSliced) in one run.
golden:
	$(GO) test ./internal/experiments -run TestGoldenStats -update

# golden-update regenerates every golden pin in one command: the serial and
# sliced golden stats snapshots, then the BENCH_sim.json perf ledger's
# "current" section on this machine.
golden-update: golden bench-json

# bench-selftest runs gpubench's tests. gpubench is its own module (its
# go.mod replaces gputlb with ../), so `go test ./...` at the root never
# builds it; without this target an internal API change could break the
# benchmark silently.
bench-selftest:
	$(GO) -C gpubench test ./...

# docs-lint layers cmd/doclint's conventions (documented exports in the
# public package, doc.go in every internal package, package comments on
# commands) on top of go vet.
docs-lint: vet
	$(GO) run ./cmd/doclint .

ci: vet build test-race fuzz-seeds docs-lint bench-selftest mech-smoke
