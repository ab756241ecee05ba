GO ?= go
PKGS := ./...

# Analyzer testdata is deliberately unformatted-looking Go that must not be
# rewritten by tooling; everything else is held to gofmt.
GOFILES := $(shell git ls-files '*.go' | grep -v '/testdata/')

.PHONY: all build test lint vet gate gate-update race server-race flake cluster-test dyn-test debug ci fmt serve perf bench fuzz-smoke obs-smoke loc

all: build

build:
	$(GO) build $(PKGS)

test:
	$(GO) test $(PKGS)

fmt:
	gofmt -w $(GOFILES)

# lint = formatting check + stock vet + the project's own analyzers.
lint: vet
	@out=$$(gofmt -l $(GOFILES)); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# vet = stock go vet plus the five concurrency/discipline analyzers in
# cmd/bfsvet (arenarelease, atomicword, falseshare, hotalloc, waitgroupleak;
# atomicword also enforces //bfs:nocas — see docs/ANALYSIS.md).
vet:
	$(GO) vet $(PKGS)
	$(GO) run ./cmd/bfsvet $(PKGS)

# gate = the compiler-contract gate: recompile the audited packages with
# escape/BCE/inlining diagnostics and check them against
# analysis/contracts.json. Skips (exit 0, with a notice) when the local
# toolchain's major.minor differs from the manifest's pin; gate-update
# re-records the per-function budgets after an intentional change.
gate:
	$(GO) run ./cmd/bfsgate -C .

gate-update:
	$(GO) run ./cmd/bfsgate -C . -update

# race = the race-detector stress suite. -short keeps the long benchmarks
# out; the *_race_test.go / contended stress tests always run.
race:
	$(GO) test -race -short $(PKGS)

# server-race = the serving stack (submit/cancel/shutdown) under the race
# detector, twice over, as CI's server race step runs it.
server-race:
	$(GO) test -race -count=2 ./internal/server/... ./cmd/bfsd/... ./cmd/bfsload/...

# flake = the packages whose tests assert on a timing or wait on concurrent
# state, twenty times over: one green `make test` says little about an
# assertion that fails one uncached run in N (ROADMAP item 2). Not part of
# `ci`; the workflow runs it as a job of its own, which blocks (0 failures
# in 200 runs of each package). bfsd's daemon tests (TestRun*) boot real
# listeners on reserved ports; they repeat 200 times (about 10 s).
flake:
	$(GO) test -count=20 ./internal/bench ./internal/perf ./internal/obs ./internal/server ./internal/sched
	$(GO) test -count=200 -run '^TestRun' ./cmd/bfsd

# cluster-test = the sharded-BFS suite under the race detector: the whole
# cluster package (delta codec, wire layer, in-process multi-shard harness
# incl. the shard-kill-mid-query test), the vertex layout the shards are
# partitioned by (sched.Stripes), the oracle grid's shard cells, plus the
# cluster-backed integration tests in internal/server and bfsd cluster
# mode. See docs/CLUSTER.md.
cluster-test:
	$(GO) test -race -count=1 ./internal/cluster/...
	$(GO) test -race -count=1 -run Stripes ./internal/sched/
	$(GO) test -race -count=1 -run 'TestGridMatchesOracle/.*/.*,shards' ./internal/core/
	$(GO) test -race -count=1 -run 'Cluster' ./internal/server/ ./cmd/bfsd/

# dyn-test = the dynamic-graph suite under the race detector: MVCC
# snapshot oracle tests, the ingest-while-query stress test (with the
# arena poisoning-hygiene assertions), the oracle grid's overlay cells,
# plus the ingest/versioning HTTP integration tests in internal/server.
# See docs/DYNAMIC.md.
dyn-test:
	$(GO) test -race -count=1 ./internal/dyngraph/
	$(GO) test -race -count=1 -run 'TestGridMatchesOracle/.*/.*,overlay,' ./internal/core/
	$(GO) test -race -count=1 -run 'Dyn|Ingest|Version|Snapshot' ./internal/server/

# debug = the test suite with the bfsdebug invariant layer live
# (per-iteration frontier/seen cross-checks + reference-BFS distance
# verification; see docs/ANALYSIS.md).
debug:
	$(GO) build -tags bfsdebug $(PKGS)
	$(GO) test -tags bfsdebug ./internal/core/...

# serve = run the query daemon on a demo graph (see docs/SERVER.md).
SERVE_GRAPH ?= demo=kron:scale=14
SERVE_ADDR  ?= :8080
serve:
	$(GO) run ./cmd/bfsd -graph $(SERVE_GRAPH) -addr $(SERVE_ADDR)

# perf = run the pinned benchmark suite and write BENCH_<sha>.json with its
# ratio rows; fails when a gated ratio row does (see docs/BENCHMARKS.md).
# PERF_FLAGS=-quick for the CI-sized variant.
PERF_FLAGS ?=
perf:
	$(GO) run ./cmd/bfsperf run $(PERF_FLAGS)

# bench = the repository benchmark BENCHMARK.json declares: five windowed
# workloads, end-to-end and per-layer metrics (see benchmark/README.md).
bench:
	bash benchmark/run.sh

# fuzz-smoke = replay the committed seed corpora, then a short randomized
# burst per target. Catches loader regressions without a long fuzz session.
# Each burst minimizes a new input for one execution only: at the default
# minimize time a burst on a fresh cache spends its whole time shrinking
# the first input it finds.
FUZZTIME ?= 10s
FUZZ = $(GO) test -fuzztime $(FUZZTIME) -fuzzminimizetime 1x -run '^$$'
fuzz-smoke:
	$(GO) test -run '^Fuzz' ./internal/graph/ ./internal/cluster/ ./internal/dyngraph/ ./internal/core/ ./internal/gen/
	$(FUZZ) -fuzz '^FuzzLoadEdgeList$$' ./internal/graph/
	$(FUZZ) -fuzz '^FuzzLoad$$' ./internal/graph/
	$(FUZZ) -fuzz '^FuzzBuild$$' ./internal/graph/
	$(FUZZ) -fuzz '^FuzzRelabel$$' ./internal/graph/
	$(FUZZ) -fuzz '^FuzzComponents$$' ./internal/graph/
	$(FUZZ) -fuzz '^FuzzFrontierCodec$$' ./internal/cluster/
	$(FUZZ) -fuzz '^FuzzDecodeLoad$$' ./internal/cluster/
	$(FUZZ) -fuzz '^FuzzDecodeStart$$' ./internal/cluster/
	$(FUZZ) -fuzz '^FuzzDecodeStepDone$$' ./internal/cluster/
	$(FUZZ) -fuzz '^FuzzReadFrame$$' ./internal/cluster/
	$(FUZZ) -fuzz '^FuzzApplyEdges$$' ./internal/dyngraph/
	$(FUZZ) -fuzz '^FuzzCompact$$' ./internal/dyngraph/
	$(FUZZ) -fuzz '^FuzzGridCell$$' ./internal/core/
	$(FUZZ) -fuzz '^FuzzGraphSpec$$' ./internal/gen/

# obs-smoke = end-to-end check of the observability surface: bfsd debug
# endpoints (pprof, flight recorder), the bfsrun Chrome trace export
# (validated by scripts/tracecheck) and its per-level text table. See
# docs/OBSERVABILITY.md.
obs-smoke:
	./scripts/obs_smoke.sh

# loc = the non-test and test Go line counts ROADMAP's LoC judges read
# (tracked *.go, analyzer testdata excluded).
loc:
	./scripts/loc.sh

# ci mirrors .github/workflows/ci.yml.
ci: build lint gate test race server-race cluster-test dyn-test debug obs-smoke fuzz-smoke
