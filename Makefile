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

# Non-test Go lines (the GoFiles of every package, as go list sees them)
# for the module, internal/active, internal/wire, internal/localgc and the
# substrate layer (internal/transport, internal/simnet, internal/tcpnet):
# the size a simplicity change is measured by.
.PHONY: loc
loc:
	@for p in ./... ./internal/active ./internal/wire ./internal/localgc \
		./internal/transport ./internal/simnet ./internal/tcpnet; do \
		printf '%-22s %s\n' "$$p" "$$($(GO) list -f '{{$$d := .Dir}}{{range .GoFiles}}{{$$d}}/{{.}} {{end}}' $$p | xargs cat | wc -l)"; \
	done

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

# The repository's benchmark (bench/README.md): all five workloads
# round-robin, then the layer ladder and one traced pass per workload
# (~2 min). The reports land in bench.json; the run exits 1 on any failed
# operation. To compare two commits, run `bash bench/run.sh -out a.json`
# on each and then `bash bench/run.sh -compare a.json b.json`.
.PHONY: bench
bench:
	bash bench/run.sh -out bench.json

# N interleaved pairs of one workload, OTHER (a checkout of the parent
# commit) against this tree, each run `bench/run.sh -workload W -seconds
# 18`: prints every end-to-end metric's medians, quartiles and the pairs
# the change won (scripts/pairs.sh).
N ?= 10
.PHONY: pairs
pairs:
	@test -n "$(OTHER)" -a -n "$(W)" || { echo "usage: make pairs OTHER=<parent checkout> W=<workload> [N=10]"; exit 2; }
	bash scripts/pairs.sh $(OTHER) $(W) $(N)

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
# FUZZTIME). FuzzPlanCodecParity holds the struct plans to the test-side
# reflection oracle; FuzzFutureValue holds a decoded value's Refs and
# FutureRefs walks to walks of its bytes.
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
	$(GO) test -run xxx -fuzz FuzzDGCRecord -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run xxx -fuzz FuzzMigrationEnvelope -fuzztime $(FUZZTIME) ./internal/active/
	$(GO) test -run xxx -fuzz FuzzFanOutEnvelope -fuzztime $(FUZZTIME) ./internal/active/
	$(GO) test -run xxx -fuzz FuzzClusterEnvelope -fuzztime $(FUZZTIME) ./internal/cluster/
	$(GO) test -run xxx -fuzz FuzzLocationEnvelope -fuzztime $(FUZZTIME) ./internal/location/
	$(GO) test -run xxx -fuzz FuzzCacheOps -fuzztime $(FUZZTIME) ./internal/location/
	$(GO) test -run xxx -fuzz FuzzPinOps -fuzztime $(FUZZTIME) ./internal/localgc/
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
# kill-and-restart / kill-and-failover recovery scenarios,
# TestChaosUnderLoad (node kills, crash-restart cycles and migration
# churn under closed-loop load) and the internal/cluster and
# internal/store building blocks.
.PHONY: chaos
chaos:
	$(GO) test -race -run 'TestConformanceClusterKill|TestCluster|TestConformanceRecover|TestConformanceFailover|TestChaosUnderLoad' ./internal/active/
	$(GO) test -race ./internal/cluster/ ./internal/store/

.PHONY: examples
examples:
	@for ex in examples/*; do \
		echo "== $$ex"; $(GO) run ./$$ex || exit 1; done
