GO ?= go

.PHONY: all build vet test test-plans test-tx race bench bench-json bench-compare bench-guard bench-server serve loadtest profile check fuzz crash

# Seconds of fuzzing per target.
FUZZTIME ?= 30s

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# bench/ is a module of its own (the ledger driver), which the root
# `go test ./...` does not reach.
test: test-plans
	$(GO) test ./...
	$(GO) test -C bench ./...
	$(MAKE) bench-guard

# Golden-plan snapshot corpus: EXPLAIN output for every query under
# internal/sql/testdata/plans/ must match byte-for-byte. After an
# intentional planner change, regenerate with:
#   $(GO) test -run TestGoldenPlans ./internal/sql/ -update
# The counter-parity and Explain tests ride along: the plan shown must be
# the plan run, with the work counters it pins.
test-plans:
	$(GO) test -run 'TestGoldenPlans|TestCounterParity|TestExplain' ./internal/sql/
	$(GO) test -run 'Explain' ./internal/core/

race:
	$(GO) test -race ./internal/core/... ./internal/sql/... ./internal/shred/... ./internal/xq2sql/...

# Transaction suite: the MVCC/Tx API tests (snapshot isolation, write
# visibility, conflicts, admission) under the race detector, plus the
# crash sweep that pins a reader snapshot across every crash point of a
# concurrent load.
test-tx:
	$(GO) test -race -count=1 -run 'TestTx|TestQueryDuringLoadConsistency|TestHTTPTransactions|TestREPLTransaction' \
		./internal/core/ ./internal/server/ ./internal/console/
	$(GO) test -count=1 -run 'TestCrashSweepSnapshotReader' ./internal/sql/

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Machine-readable benchmark snapshot: run the E1-E16 suite with memory
# stats and archive it as BENCH_<date>.json plus the raw text twin
# BENCH_<date>.txt. BENCHTIME is fixed (not time-based) so runs are
# comparable across commits.
BENCHTIME ?= 3x
BENCHSTEM ?= BENCH_$(shell date +%F)

bench-json:
	$(GO) test -run xxx -bench . -benchtime $(BENCHTIME) -benchmem . \
		| tee $(BENCHSTEM).txt \
		| $(GO) run ./cmd/benchjson > $(BENCHSTEM).json
	@echo "wrote $(BENCHSTEM).json (raw text in $(BENCHSTEM).txt)"

# Contention inspection: run the concurrent query benchmark with mutex,
# block, and CPU profiling and drop the artifacts (plus the test binary
# pprof needs) under profiles/. Inspect with:
#   go tool pprof profiles/bench.test profiles/mutex.prof
PROFILEBENCH ?= BenchmarkQueryConcurrent
profile:
	@mkdir -p profiles
	$(GO) run ./cmd/benchjson -bench $(PROFILEBENCH) -benchtime $(BENCHTIME) \
		-profiledir profiles > profiles/bench.json
	@echo "profiles/ now holds mutex.prof block.prof cpu.prof bench.test bench.json"

# Regression gate: rerun the guarded benchmarks and fail if ns/op
# regressed more than GUARDTOL against the committed baseline text.
# The $$ doubles survive Make so the regex anchors reach go test.
# GUARDTIME is longer than BENCHTIME and GUARDTOL wider than benchstat
# habits because the gate must stay green on noisy single-core CI boxes
# while still catching step-function regressions (observed same-commit
# run-to-run swings on the reference box reach ±45%).
GUARDBENCH ?= BenchmarkQueryConcurrent/scan$$/clients=16$$/workers=1$$|BenchmarkChunkScan|BenchmarkHashJoinPartitioned|BenchmarkGroupBy|BenchmarkOrderByTopK|BenchmarkJoinSpill|BenchmarkQueryDuringLoad
GUARDBASE  ?= BENCH_E19_after.txt
GUARDTIME  ?= 10x
GUARDTOL   ?= 0.50

bench-guard:
	$(GO) run ./cmd/benchjson -bench '$(GUARDBENCH)' -benchtime $(GUARDTIME) \
		-guard $(GUARDBASE) -tolerance $(GUARDTOL) > /dev/null

# Compare two raw benchmark text files (the .txt twins bench-json
# leaves next to the JSON) with benchstat, if installed.
bench-compare:
	@command -v benchstat >/dev/null 2>&1 || { \
		echo "benchstat not installed; compare $(OLD) and $(NEW) by hand"; \
		echo "(get it with: go install golang.org/x/perf/cmd/benchstat@latest)"; \
		exit 1; }
	benchstat $(OLD) $(NEW)

# ---- server ----

SERVE_DB    ?= serve.db
SERVE_HTTP  ?= 127.0.0.1:8080
SERVE_LINE  ?= 127.0.0.1:7979
SERVE_DATA  ?= data

# Generate demo data (once) and serve it: HTTP on $(SERVE_HTTP), line
# protocol on $(SERVE_LINE). Attach with: xomatiq -connect $(SERVE_LINE)
serve:
	@test -f $(SERVE_DATA)/enzyme.dat || $(GO) run ./cmd/genload -out $(SERVE_DATA) -enzyme 500 -embl 0 -sprot 0
	$(GO) run ./cmd/xomatiqd -db $(SERVE_DB) -http $(SERVE_HTTP) -line $(SERVE_LINE) \
		-preload hlx_enzyme.DEFAULT=enzyme:$(SERVE_DATA)/enzyme.dat

# Concurrent-clients load test under the race detector: N HTTP clients
# mixing queries and ingest, results byte-checked against the embedded
# engine, plus shedding and shutdown-drain coverage.
loadtest:
	$(GO) test -race -count=1 -v -run 'TestConcurrentClients|TestHTTPInflightShedding|TestLineSessionShedding|TestShutdownDrains' ./internal/server/

# End-to-end HTTP query latency: start a throwaway preloaded server on
# a scratch port, ramp 1/4/16 clients with benchjson -server, archive
# the result as the BENCH_SRV baseline, and shut the server down.
BENCHSRV_HTTP ?= 127.0.0.1:18080
BENCHSRV_OUT  ?= BENCH_SRV_$(shell date +%F)

bench-server:
	@test -f $(SERVE_DATA)/enzyme.dat || $(GO) run ./cmd/genload -out $(SERVE_DATA) -enzyme 500 -embl 0 -sprot 0
	@rm -rf benchsrv.tmp && mkdir -p benchsrv.tmp
	$(GO) build -o benchsrv.tmp/xomatiqd ./cmd/xomatiqd
	$(GO) build -o benchsrv.tmp/benchjson ./cmd/benchjson
	@benchsrv.tmp/xomatiqd -db benchsrv.tmp/bench.db -http $(BENCHSRV_HTTP) -line "" \
		-preload hlx_enzyme.DEFAULT=enzyme:$(SERVE_DATA)/enzyme.dat & \
	pid=$$!; trap "kill $$pid 2>/dev/null" EXIT; \
	for i in $$(seq 1 50); do \
		benchsrv.tmp/benchjson -server http://$(BENCHSRV_HTTP) -clients 1 -requests 1 >/dev/null 2>&1 && break; \
		sleep 0.2; \
	done; \
	benchsrv.tmp/benchjson -server http://$(BENCHSRV_HTTP) \
		2> $(BENCHSRV_OUT).txt > $(BENCHSRV_OUT).json; \
	status=$$?; kill $$pid 2>/dev/null; trap - EXIT; \
	cat $(BENCHSRV_OUT).txt; \
	echo "wrote $(BENCHSRV_OUT).json (raw text in $(BENCHSRV_OUT).txt)"; \
	exit $$status

check: vet build test race

# Fuzz each parser target, the tuple wire format, the join-strategy
# differential and the shred/reconstruct round trip for $(FUZZTIME); crashers persist under the package's
# testdata/fuzz/ directory and become regression seeds.
fuzz:
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/xq/
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/sql/
	$(GO) test -run xxx -fuzz FuzzJoinStrategies -fuzztime $(FUZZTIME) ./internal/sql/
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/dtd/
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/xmldoc/
	$(GO) test -run xxx -fuzz FuzzTupleWire -fuzztime $(FUZZTIME) ./internal/value/
	$(GO) test -run xxx -fuzz FuzzShredRoundTrip -fuzztime $(FUZZTIME) ./internal/shred/

# Crash-point enumeration and fault-injection sweeps: every counted disk
# op is a crash or fault site; recovery must land on a committed boundary.
crash:
	$(GO) test -v -run 'Crash|FaultSweep' ./internal/sql/ ./internal/core/
