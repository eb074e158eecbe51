# Build, test, and verification entry points for the PASS reproduction.
#
#   make check         — the full gate: vet, the whole test suite, a race
#                        pass over the concurrent packages, the hot-path
#                        microbenchmarks, and the perf regression gate.
#                        Run before sending a PR.
#   make short         — quick edit loop: -short shrinks the 1,000-site
#                        conformance sweeps and skips the 10k-site ones.
#   make bench         — regenerate the experiment tables (E1–E18) and
#                        write BENCH.json for comparison against the
#                        committed BENCH_3.json baseline. BENCH.json is
#                        scratch output (gitignored); the committed
#                        baselines are BENCH_3.json (perf gate) and
#                        BENCH_2.json (pre-fast-path, for bench-speedup).
#   make bench-quick   — the hot-path microbenchmarks (netsim Send,
#                        passnet Tick, siteview Apply, dht Lookup) at
#                        -benchtime=100x: fast enough for every check run,
#                        and it executes the allocation assertions' code
#                        paths so a Send regression fails loudly here.
#   make bench-smoke   — vet the benchmark module (benchmark/, its own
#                        go.mod) and run its tests, which include a 1%
#                        run of all four workloads against real passd
#                        nodes (~25 s). Keeps the benchmark compiling
#                        against the node code it drives.
#   make docs-check    — fail if an internal/ package lacks a package
#                        comment or README's experiment table drifts from
#                        the harness registry (cmd/docscheck).
#   make bench-check   — run the suite at the baseline's scale and fail on
#                        runtime regressions or broken recall invariants
#                        (cmd/benchcheck).
#   make bench-speedup — prove the fast-path win: run the suite fresh and
#                        require >= 2x whole-suite speedup against
#                        BENCH_2.json, the last baseline recorded before
#                        the netsim fast path + parallel harness. Not part
#                        of check (it compares across baseline
#                        generations, so it is only meaningful on hardware
#                        comparable to the recording machine).

GO ?= go

.PHONY: all build test short vet race check bench bench-quick bench-check bench-smoke bench-speedup docs-check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# The storage engine and provenance core get the full -race treatment;
# the architecture models and the experiment harness are mutex-bearing
# too (every model serializes state behind its lock), so they run under
# -race as well — at -short scale, because the 1,000-site conformance
# sweeps under the race detector's ~10x slowdown would dominate the gate
# without widening its coverage. netsim joins the net with its sharded
# atomic accounting, and the harness run covers the parallel cell runner:
# the serial-vs-parallel equivalence tests execute both paths. The ops
# surface is concurrent by design — the metrics registry and trace ring
# are scraped while soaks write to them — so metrics, trace, and obs run
# under -race too (obs at -short: its soaks replay full fault schedules),
# and ratelimit joins them: admission controllers take concurrent Offer
# calls by contract.
# The real-socket layer joins the net: wire endpoints multiplex inflight
# requests across goroutines and node handlers run concurrently, so wire
# and node race in full; the multi-process cluster harness races at
# -short (clean cross-check only — the lossy and churn schedules run in
# the CI integration job and the plain test target).
race:
	$(GO) test -race -count=1 ./internal/core ./internal/kvstore ./internal/netsim ./internal/metrics ./internal/trace ./internal/ratelimit
	$(GO) test -race -short -count=1 ./internal/arch/... ./internal/harness ./internal/obs
	$(GO) test -race -count=1 -run 'TestSerialParallelEquivalence|TestRunCells' ./internal/harness
	$(GO) test -race -count=1 ./internal/wire ./internal/node
	$(GO) test -race -short -count=1 ./internal/harness/cluster

check: vet test race bench-quick bench-check bench-smoke docs-check

# The benchmark is a module of its own, so `go vet ./...` and
# `go test ./...` at the root do not reach it.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The documentation gate: every internal/ package must have a package
# comment and README's experiment table must match the harness registry.
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

# The fast-path acceptance check: whole-suite wall-clock must beat the
# pre-optimization BENCH_2.json recording by >= 2x.
bench-speedup:
	$(GO) run ./cmd/passbench -scale 0.5 -json BENCH.json >/dev/null
	$(GO) run ./cmd/benchcheck -baseline BENCH_2.json -current BENCH.json -min-speedup 2
