# Single entry point for the repo's checks. `make check` is the whole CI:
# gofmt + vet + build + tier-1 tests + the race-enabled suite + the repair-case
# coverage gate + the degraded-mode/quarantine gate + nested-fault crash
# rounds + a one-iteration smoke of the parallel benchmarks + the serving
# layer smoke (full protocol over TCP, crash-recover round, group-commit
# batching under concurrent clients) + the benchmark module's vet and tests.

GO ?= go

.PHONY: check fmt vet build test test-short race repair-coverage quarantine nested-faults bench bench-smoke bench-parallel server-smoke bench-server shard-smoke bench-shards hotpath-smoke bench-hotpath bulkload-smoke bench-rebuild perfbench loc

check: fmt vet build test race repair-coverage quarantine nested-faults bench-smoke server-smoke shard-smoke hotpath-smoke bulkload-smoke perfbench

# Every Go source must be gofmt-clean. Hidden directories (.bench_build,
# scratch dirs) hold build caches, not sources, and are skipped.
fmt:
	@out=$$(gofmt -l $$(find . -name '*.go' -not -path './.*')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Tier-1: the full test suite (see ROADMAP.md).
test:
	$(GO) test ./...

# Quick iteration: skips the file-backed crash enumerations and fuzzers.
test-short:
	$(GO) test -short ./...

# The whole repo under the race detector (-short skips the slow crash
# enumerations; the §3.6 shared-mode paths and the observability recorder
# are what the detector is for).
race:
	$(GO) test -race -short ./...

# The coverage gate: counters must prove the §3.3 prevPtr re-copy and every
# §3.4 case (a)-(e) actually fired, or the build fails naming the missing
# cases.
repair-coverage:
	$(GO) test ./internal/btree -run TestRepairCaseCoverage

# The degraded-mode gate: quarantine registry semantics, skip-and-report
# scans, supervisor heal/rebuild, and the health-state machine — including
# the counter-backed Healthy -> Degraded -> Healthy acceptance scenario.
quarantine:
	$(GO) test ./internal/buffer -run 'TestRetryExhausted|TestZeroRoute|TestMetaPageQuarantine|TestQuarantineBackoff|TestNewPageReleases'
	$(GO) test ./internal/btree -run 'TestDegradedScan|TestHealQuarantined'
	$(GO) test ./internal/core -run 'TestHealth|TestSupervisor'

# Crash-during-recovery hardening: the in-process idempotence tests, the
# multi-epoch crash fuzzer under the race detector (the race leg runs
# -short, which skips it; its seed list keeps the seeds that caught a peer
# verification trusted across crash epochs), plus a few fastrec-crash
# rounds that crash again while repair is in flight.
nested-faults:
	$(GO) test ./internal/btree -run 'NestedCrash'
	$(GO) test -race ./internal/btree -run 'TestCrashFuzz$$'
	$(GO) run ./cmd/fastrec-crash -variant shadow -rounds 3 -nested-faults -seed 1
	$(GO) run ./cmd/fastrec-crash -variant reorg -rounds 3 -nested-faults -faults -seed 1

# One iteration of each parallel benchmark (proves the concurrency plumbing
# works end to end), plus the disabled-recorder overhead bound: obs calls
# on a nil recorder must stay within a few ns.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkParallel' -benchtime 1x .
	$(GO) test ./internal/obs -run TestDisabledOverhead

# The full benchmark suite (paper experiments + parallel scaling).
bench:
	$(GO) test -bench . -benchmem ./...

# The §3.6 scaling sweep behind BENCH_concurrency.json (see EXPERIMENTS.md).
bench-parallel:
	$(GO) run ./cmd/fastrec-bench -procs 1,2,4,8,16,32 -json

# The serving-layer gate: every protocol verb over real TCP, graceful
# shutdown draining an in-flight commit, the wire-level crash-recover
# round, and concurrent clients actually coalescing in the group-commit
# coordinator — all under the race detector, plus the coordinator's own
# crash-semantics tests (batch invisibility on a crash between the shared
# sync and the status write). A GET racing a committing writer is run ten
# times over: it must never answer NOTFOUND for a key that always exists.
server-smoke:
	$(GO) test -race ./internal/server
	$(GO) test -race -count=10 -run TestGetRacingWriterNeverNotFound ./internal/server
	$(GO) test -race ./internal/txn -run 'TestGroupCommit|TestBatch|TestSpill|TestCommit|TestStatusAppend|TestVisibility'

# The commit-throughput sweep behind BENCH_server.json (see EXPERIMENTS.md).
bench-server:
	$(GO) run ./cmd/fastrec-bench -server -clients 1,2,4,8 -json

# The sharding gate, all under the race detector: the router's merged
# scans and parallel recovery, the core index over several trees
# (crash/recover with every shard dirty, supervisor healing a fault in
# every shard, heap rebuilds that respect shard routing, one name per
# index, the same answers at 1, 2 and 4 trees), the txn layer's parallel force
# fan-out across sync domains, and a multi-shard server crash/recover
# round over real TCP.
shard-smoke:
	$(GO) test -race ./internal/shard
	$(GO) test -race ./internal/core -run 'TestSharded|TestOneNameOneIndex|TestIndexDifferential'
	$(GO) test -race ./internal/txn -run TestBatchForce
	$(GO) test -race ./internal/server -run TestServerSharded

# The hot-path gate: the allocation assertions on every variant (a warm
# lookup hit and a no-split insert must not touch the heap, a warm 3-key
# scan stays within its bound, and a one-tree index scan allocates no more
# than its tree's scan), batched inserts racing
# point inserts under the race detector, the scan-resistant eviction tests
# (including the exact legacy-clock fallback for tiny stripes), the pool's
# dirty list under the race detector (a flush writes exactly what a scan
# of the stripes finds dirty, failed writes are retried, the list holds
# only resident frames, helpers follow the measured pace and start on a
# device that waits per write, concurrent writers lose no update), a
# one-row commit forcing only its own pages, and the batched
# MPUT verb end to end over TCP.
hotpath-smoke:
	$(GO) test ./internal/btree -run 'ZeroAllocs|TestScanAllocs|TestInsertBatch|TestLookupInto'
	$(GO) test ./internal/core -run 'TestOneTreeScanAllocs|TestCommitForceWritesOnlyDirtied'
	$(GO) test -race ./internal/btree -run TestInsertBatchConcurrent
	$(GO) test ./internal/buffer -run 'TestScanResist|TestTinyPool|TestSetLegacy'
	$(GO) test -race ./internal/buffer -run 'TestDirtyList|TestFlush'
	$(GO) test -race ./internal/server -run TestServerMput

# The hot-path measurement suite behind BENCH_hotpath.json (see
# EXPERIMENTS.md E11): point-op ns/op and allocs/op, batched vs single
# durable write throughput, and the scan-heavy eviction hit rates. Supports
# -cpuprofile/-memprofile for drill-downs.
bench-hotpath:
	$(GO) run ./cmd/fastrec-bench -hotpath

# The shard-scaling and parallel-recovery sweeps behind the "sharded" and
# "recovery" sections of BENCH_concurrency.json (see EXPERIMENTS.md).
bench-shards:
	$(GO) run ./cmd/fastrec-bench -shards 1,2,4,8 -procs 16,32 -op mixed -json
	$(GO) run ./cmd/fastrec-bench -recover -shards 1,2,4,8 -json

# The bulk-load gate: the loader's differential and property tests against
# the insert path, the core bulk-load/rebuild-from-heap layer (at 1 and 4
# trees, and the supervisor's wholesale escalation) under the race
# detector, the dump tool's rebuild round trip, and crash enumeration at
# every sync point of a bulk load and a wholesale rebuild for two variants.
bulkload-smoke:
	$(GO) test -race ./internal/btree -run 'TestBulkLoad|TestBulkReplace|TestQuickBulkLoad'
	$(GO) test -race ./internal/core -run 'TestIndexBulkLoad|TestIndexRebuild|TestSupervisorWholesale'
	$(GO) test ./cmd/fastrec-dump -run TestRebuildDir
	$(GO) run ./cmd/fastrec-crash -variant shadow -bulkload -bulk-keys 1200 -seed 1
	$(GO) run ./cmd/fastrec-crash -variant reorg -bulkload -bulk-keys 1200 -faults -seed 1

# The bulk-load and rebuild measurements behind BENCH_rebuild.json (see
# EXPERIMENTS.md E12): bulk vs incremental build speed, and per-page reseed
# vs wholesale rebuild on identical media-damage images.
bench-rebuild:
	$(GO) run ./cmd/fastrec-bench -rebuild -json > BENCH_rebuild.json
	@cat BENCH_rebuild.json

# The benchmark module (perfbench/) is a Go module of its own, so the root
# `go build ./...` never compiles it: vet it and run its tests here, or a
# core API change could break the benchmark while everything else passes.
perfbench:
	cd perfbench && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) test ./...

# The repo's size as the roadmap tracks it: non-test Go lines outside the
# benchmark module and hidden directories.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './perfbench/*' -not -path './.*' | xargs cat | wc -l
