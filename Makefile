GO ?= go

.PHONY: all build vet test test-plans test-tx race serve loadtest check fuzz crash

# Seconds of fuzzing per target.
FUZZTIME ?= 30s

all: check

# bench/ is a module of its own (the ledger driver), which the root
# `go build/vet/test ./...` does not reach: each target runs it too, so
# a change under internal/ that breaks the ledger fails here.
build:
	$(GO) build ./...
	$(GO) build -C bench ./...

vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...

test: test-plans
	$(GO) test ./...
	$(GO) test -C bench ./...

# Golden-plan snapshot corpus: EXPLAIN output for every query under
# internal/sql/testdata/plans/ must match byte-for-byte. After an
# intentional planner change, regenerate with:
#   $(GO) test -run TestGoldenPlans ./internal/sql/ -update
# The counter-parity and Explain tests ride along: the plan shown must be
# the plan run, with the work counters it pins. So do the join-strategy
# tests (the fuzz target on its seed corpus): every strategy, and an
# index join at every switch point, returns the same rows.
test-plans:
	$(GO) test -run 'TestGoldenPlans|TestCounterParity|TestExplain|TestJoin|FuzzJoinStrategies' ./internal/sql/
	$(GO) test -run 'Explain|Legacy' ./internal/core/

# The keyword index has no lock of its own (the writer changes a copy
# that is published with the snapshot), so it runs here too.
race:
	$(GO) test -race ./internal/core/... ./internal/sql/... ./internal/shred/... ./internal/xq2sql/... ./internal/index/...

# Transaction suite: the MVCC/Tx API tests (snapshot isolation, write
# visibility, conflicts, admission, keyword queries answered from the
# dictionary of a pinned snapshot or beside an open batch) under the race
# detector, plus the crash sweep that pins a reader snapshot across every
# crash point of a concurrent load.
test-tx:
	$(GO) test -race -count=1 -run 'TestTx|TestQueryDuringLoadConsistency|TestHTTPTransactions|TestREPLTransaction' \
		./internal/core/ ./internal/server/ ./internal/console/
	$(GO) test -count=1 -run 'TestCrashSweepSnapshotReader' ./internal/sql/

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
