GO ?= go

# Tier-1 verification: everything a PR must keep green.
.PHONY: verify
verify: build vet bench-vet fmt-check test bench-test

.PHONY: build
build:
	$(GO) build ./...

.PHONY: vet
vet:
	$(GO) vet ./...

# bench/ is a nested module that builds against the runtime's internal
# codecs and transports; vetting it here catches a signature change that
# would otherwise only break the benchmark run.
.PHONY: bench-vet
bench-vet:
	$(GO) -C bench vet .

# bench/'s own tests: its ladder and workloads drive the wire codec
# (Marshal, Unmarshal, Decoder, Encode) and the runtime end to end.
.PHONY: bench-test
bench-test:
	$(GO) -C bench test .

# Fails when any file needs gofmt.
.PHONY: fmt-check
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# -shuffle=on randomizes test order within each package so ordering
# dependencies between tests surface in CI instead of in the field.
.PHONY: test
test:
	$(GO) test -shuffle=on ./...

# Full tree under the race detector (CI runs this too).
.PHONY: race
race:
	$(GO) test -race -shuffle=on ./...

# Per-package timings + coverage summary from one full suite run. CI's
# verify job runs this and uploads test-report.txt as an artifact; the
# pipe stays a gate because cmd/testreport exits nonzero on any failed
# package (and the shell runs with pipefail in CI).
.PHONY: test-report
test-report:
	$(GO) test -json -cover -shuffle=on ./... | $(GO) run ./cmd/testreport -out test-report.txt

# Static analysis beyond vet, exactly as CI runs it: staticcheck (pinned,
# so local and CI agree) and govulncheck (latest: the vulnerability
# database moves regardless of what we pin). Both run via `go run`, so no
# tool installation or PATH setup is needed — only network access on the
# first run.
STATICCHECK_VERSION ?= 2025.1.1
.PHONY: lint
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

# Regenerate the messaging trajectory via the loadgen/soak subsystem.
BENCH_DURATION ?= 2s
.PHONY: bench
bench:
	$(GO) run ./cmd/loadgen -suite -duration $(BENCH_DURATION) -out BENCH_messaging.json

# The paper-figure and dispatch micro-benchmarks (EXPERIMENTS.md tables),
# over the whole tree: the root package's paper figures plus the
# internal/active, internal/tcpnet and internal/transport hot-path
# benches (BenchmarkFlusherBurst reports the items per frame a corked
# burst of 32 urgent sends leaves in) and the size ladders of the
# location table and the heap's stub rebind (BenchmarkCacheAdd/size=…,
# BenchmarkRebindStubs/cells=…).
.PHONY: bench-go
bench-go:
	$(GO) test -run xxx -bench . -benchmem ./...

# Short fuzz pass over every fuzzable decoder (longer runs: raise
# FUZZTIME).
FUZZTIME ?= 15s
.PHONY: fuzz
fuzz:
	$(GO) test -run xxx -fuzz FuzzPlanCodecParity -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzDecodeRefFree -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzCodecDecodeUnmarshal -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzUnmarshal -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzFutureValue -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzFrameDecode$$ -fuzztime $(FUZZTIME) ./internal/tcpnet/
	$(GO) test -run xxx -fuzz FuzzFrameDecodeReuse -fuzztime $(FUZZTIME) ./internal/tcpnet/
	$(GO) test -run xxx -fuzz FuzzWalkBatch -fuzztime $(FUZZTIME) ./internal/transport/
	$(GO) test -run xxx -fuzz FuzzProtocolEnvelope -fuzztime $(FUZZTIME) ./internal/active/
	$(GO) test -run xxx -fuzz FuzzMigrationEnvelope -fuzztime $(FUZZTIME) ./internal/active/
	$(GO) test -run xxx -fuzz FuzzFanOutEnvelope -fuzztime $(FUZZTIME) ./internal/active/
	$(GO) test -run xxx -fuzz FuzzClusterEnvelope -fuzztime $(FUZZTIME) ./internal/cluster/
	$(GO) test -run xxx -fuzz FuzzLocationEnvelope -fuzztime $(FUZZTIME) ./internal/location/
	$(GO) test -run xxx -fuzz FuzzCacheOps -fuzztime $(FUZZTIME) ./internal/location/
	$(GO) test -run xxx -fuzz FuzzCheckpointRecord -fuzztime $(FUZZTIME) ./internal/store/

# Rewrite the golden wire vectors (testdata/wire/*.hex) from the current
# encoders: the vector tests rerun with -update in exactly the packages
# that define that flag. A PR that regenerates a vector says so in
# CHANGES.md (WIRE.md, "Golden vectors").
GOLDEN_PKGS = ./internal/wire/ ./internal/active/ ./internal/tcpnet/ ./internal/transport/ \
	./internal/cluster/ ./internal/location/ ./internal/store/
.PHONY: golden
golden:
	$(GO) test -count=1 -run '^TestGolden' $(GOLDEN_PKGS) -update

# Cluster chaos pass, exactly as the CI chaos job runs it: the
# node-kill + join/leave conformance scenarios under the race detector
# on both backends (the Kill tests exist in Sim and TCP variants), the
# kill-and-restart / kill-and-failover recovery scenarios, the
# internal/cluster and internal/store building blocks, a loadgen churn +
# node-kill smoke that hard-kills a node every 300ms under a live
# call/churn mix, and a crash-restart smoke that kills and recovers the
# durable node every 300ms (gated on zero lost registered identities).
CHAOS_DURATION ?= 3s
.PHONY: chaos
chaos:
	$(GO) test -race -run 'TestConformanceClusterKill|TestCluster|TestConformanceRecover|TestConformanceFailover' ./internal/active/
	$(GO) test -race ./internal/cluster/ ./internal/store/
	$(GO) test -race -run 'TestRunNodeKillChaos|TestRunRestartChaos' ./internal/loadgen/
	$(GO) run ./cmd/loadgen -duration $(CHAOS_DURATION) -mix 4:0:2 -kill-every 300ms
	$(GO) run ./cmd/loadgen -duration $(CHAOS_DURATION) -mix 4:0:2 -restart-every 300ms

# CI perf gate, runnable locally: measure a fresh suite and compare it
# against the checked-in trajectory (fails on >20% p50/call-rate regress
# and on the sends-1m-local scenario dropping under 10^6 ops/s).
MAX_REGRESS ?= 20
.PHONY: perf-gate
perf-gate:
	$(GO) run ./cmd/loadgen -suite -duration 2s -out /tmp/bench.json
	$(GO) run ./cmd/loadgen -compare -candidate /tmp/bench.json -max-regress $(MAX_REGRESS)

# Local before/after comparison: run the suite on the working tree and
# print the per-scenario delta table against the checked-in baseline
# (BENCH_messaging.json, or BASELINE=<file>). Exits nonzero when a delta
# crosses the perf-gate thresholds — the same plumbing CI uses.
BASELINE ?= BENCH_messaging.json
.PHONY: bench-compare
bench-compare:
	$(GO) run ./cmd/loadgen -suite -duration $(BENCH_DURATION) -out /tmp/bench-candidate.json
	$(GO) run ./cmd/loadgen -compare -baseline $(BASELINE) -candidate /tmp/bench-candidate.json -max-regress $(MAX_REGRESS)

.PHONY: examples
examples:
	@for ex in examples/*; do \
		echo "== $$ex"; $(GO) run ./$$ex || exit 1; done
