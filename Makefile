# Build, test, and verification entry points for the PASS reproduction.
#
#   make check         — the full gate: vet, the whole test suite, a race
#                        pass over the concurrent packages, the windows
#                        and darwin builds, the hot-path microbenchmarks,
#                        and the perf regression gate.
#                        Run before sending a PR.
#   make short         — quick edit loop: -short shrinks the 1,000-site
#                        conformance sweeps and skips the 10k-site ones.
#   make bench         — regenerate the experiment tables (E1–E18) and
#                        write BENCH.json for comparison against the
#                        committed BENCH_3.json baseline. BENCH.json is
#                        scratch output (gitignored).
#   make bench-quick   — the hot-path microbenchmarks (netsim Send,
#                        kvstore table Get and Scan, passnet Tick,
#                        siteview Apply, dht Lookup) at -benchtime=100x:
#                        fast enough for every check run, and it executes
#                        the allocation assertions' code paths so a Send
#                        regression fails loudly here.
#   make bench-smoke   — vet the benchmark module (benchmark/, its own
#                        go.mod) and run its tests, which include a 1%
#                        run of all four workloads against real passd
#                        nodes (~25 s). Keeps the benchmark compiling
#                        against the node code it drives.
#   make docs-check    — fail if an internal/ package lacks a package
#                        comment, README's experiment table drifts from
#                        the harness registry, README's series table
#                        drifts from the node code's "pass_…" literals,
#                        or README/ARCHITECTURE name a make target or
#                        package path that does not exist (cmd/docscheck).
#   make cross         — build the whole module for windows and darwin,
#                        which keeps kvstore's off-unix heap table reader
#                        and the unix mmap one compiling on both sides.
#   make bench-check   — run the suite at the baseline's scale and fail on
#                        runtime regressions or broken recall invariants
#                        (cmd/benchcheck).
#   make fuzz          — fuzz every decoder that reads a socket or a
#                        disk for 10 s each: no panic, no allocation
#                        sized by a hostile count, and every accepted
#                        frame round-trips. Not part of check; CI runs
#                        it as its own job.
#   make same-tables   — the no-behaviour-change proof: diff the twelve
#                        deterministic experiment tables at scale 0.1
#                        against $(REF) (default HEAD). Not part of check:
#                        a behaviour change differs on purpose.

GO ?= go

.PHONY: all build test short vet race check cross bench bench-quick bench-check bench-smoke docs-check fuzz same-tables

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# Every package runs under -race at -short scale: the 1,000-site
# conformance sweeps under the race detector's ~10x slowdown would
# dominate the gate without widening its coverage. The packages whose
# concurrency is the point — the storage engine and provenance core,
# netsim's sharded accounting, the metrics registry scraped while
# nodes write it, admission controllers taking
# concurrent Offer calls, wire endpoints multiplexing inflight requests,
# and node handlers — also run at full scale, as does the parallel cell
# runner's serial-vs-parallel equivalence in the harness.
race:
	$(GO) test -race -short -count=1 ./...
	$(GO) test -race -count=1 ./internal/core ./internal/kvstore ./internal/netsim ./internal/metrics ./internal/ratelimit ./internal/wire ./internal/node
	$(GO) test -race -count=1 -run 'TestSerialParallelEquivalence|TestRunCells' ./internal/harness

check: vet test race cross bench-quick bench-check bench-smoke docs-check

# kvstore maps its tables on unix and reads them into the heap elsewhere;
# the one platform of each kind keeps both files compiling.
cross:
	GOOS=windows $(GO) build ./...
	GOOS=darwin $(GO) build ./...

# The benchmark is a module of its own, so `go vet ./...` and
# `go test ./...` at the root do not reach it.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The documentation gate: every internal/ package must have a package
# comment, README's experiment and series tables must match the harness
# registry and the node code, and the make targets and package paths
# README and ARCHITECTURE name must exist.
docs-check:
	$(GO) run ./cmd/docscheck

bench:
	$(GO) run ./cmd/passbench -scale 0.5 -json BENCH.json

# Hot-path microbenchmarks at a fixed small iteration count: wall-clock
# numbers are informational, but the runs double as smoke tests for the
# allocation-free paths (the hard assertions live in the packages' test
# files, e.g. TestSendZeroAllocs).
bench-quick:
	$(GO) test -run '^$$' -bench 'BenchmarkSend|BenchmarkBroadcast|BenchmarkStats' -benchtime=100x ./internal/netsim
	$(GO) test -run '^$$' -bench '^(BenchmarkGetFromTables|BenchmarkScan)$$' -benchtime=100x ./internal/kvstore
	$(GO) test -run '^$$' -bench 'BenchmarkPassnetTick' -benchtime=100x ./internal/arch/passnet
	$(GO) test -run '^$$' -bench 'BenchmarkSiteviewApply' -benchtime=100x ./internal/arch/siteview
	$(GO) test -run '^$$' -bench 'BenchmarkDHTLookup' -benchtime=100x ./internal/arch/dht
	$(GO) test -run '^$$' -bench 'BenchmarkOpenLoopGen' -benchtime=100x ./internal/workload
	$(GO) test -run '^$$' -bench 'BenchmarkTokenBucket' -benchtime=100x ./internal/ratelimit

# The perf trajectory gate (ROADMAP): regenerate the suite at the
# baseline's scale, then compare wall-clock per experiment (generous
# tolerance — this catches O(n) blowups, not noise) and recall
# invariants against the committed BENCH_3.json.
bench-check:
	$(GO) run ./cmd/passbench -scale 0.5 -json BENCH.json >/dev/null
	$(GO) run ./cmd/benchcheck -baseline BENCH_3.json -current BENCH.json

# `go test -fuzz` takes one target at a time, so each decoder's target
# runs on its own line. A failing input is written under the package's
# testdata/fuzz/ and replays in every later `go test`.

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeStore$$' -fuzztime 10s ./internal/node
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDeltas$$' -fuzztime 10s ./internal/node
	$(GO) test -run '^$$' -fuzz '^FuzzViewApply$$' -fuzztime 10s ./internal/arch/siteview
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeView$$' -fuzztime 10s ./internal/arch/siteview
	$(GO) test -run '^$$' -fuzz '^FuzzMergeEncoded$$' -fuzztime 10s ./internal/arch/siteview
	$(GO) test -run '^$$' -fuzz '^FuzzLoadCheckpoint$$' -fuzztime 10s ./internal/node
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/provenance
	$(GO) test -run '^$$' -fuzz '^FuzzOpenTable$$' -fuzztime 10s ./internal/kvstore

# Extract $(REF) with git archive, run the deterministic tables there and
# in the working tree, drop the wall-clock "(… completed in …)" lines, and
# diff. E1–E4, E10 and E12 print wall-clock columns, so two runs of the
# same commit differ there; they are left out.
REF ?= HEAD
SAME_TABLES = E5,E6,E7,E8,E9,E11,E13,E14,E15,E16,E17,E18

same-tables:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && mkdir "$$tmp/ref" && \
	git archive $(REF) | tar -x -C "$$tmp/ref" && \
	(cd "$$tmp/ref" && $(GO) run ./cmd/passbench -run $(SAME_TABLES) -scale 0.1 > "$$tmp/ref.raw") && \
	$(GO) run ./cmd/passbench -run $(SAME_TABLES) -scale 0.1 > "$$tmp/cur.raw" && \
	grep -v '^(E[0-9]* completed in ' "$$tmp/ref.raw" > "$$tmp/ref.txt" && \
	grep -v '^(E[0-9]* completed in ' "$$tmp/cur.raw" > "$$tmp/cur.txt" && \
	diff -u "$$tmp/ref.txt" "$$tmp/cur.txt" && \
	echo "same-tables: $(SAME_TABLES) at scale 0.1 identical to $(REF)"
