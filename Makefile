GO ?= go
# Pinned staticcheck release for reproducible lint runs; CI installs it,
# local runs use whatever `staticcheck` is on PATH (skipped if absent).
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: build test race durable cross vet lint bench bench-match bench-chaos bench-qcache bench-scale bench-wal bench-wire bench-fed bench-pairs chaos fuzz fmt-check docs-check loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/obs/... ./internal/registry/... ./internal/federation/... ./internal/runtime/... ./internal/ontology/... ./internal/match/... ./internal/describe/... ./internal/profile/... ./internal/workload/... ./internal/wire/... ./internal/transport/... ./internal/sim/... ./internal/node/... ./internal/discovery/... ./internal/integration/...

# The acked-renewal ordering tests and the crash states of a
# preallocated WAL segment, 20 times each under the race detector: a
# renewal acked before its barrier must still be safe, and a kill must
# leave acked frames, at most one torn frame, then zeros — so an
# ordering or end-of-log bug should fail here, not in the field.
durable:
	$(GO) test -race -count=20 -run 'TestAckedImpliesDurable|TestRenewAck|TestWALPrealloc' ./internal/federation/... ./internal/registry/...

# go vet for the platforms CI does not build on, so a build-tagged file
# (wal_linux.go, udpnet_linux.go) cannot drift from its fallback
# unnoticed. bench/ is left out: it is Linux-only by design.
cross:
	@for t in linux/arm64 darwin/arm64 windows/amd64; do \
		echo "vet $$t"; \
		GOOS=$${t%/*} GOARCH=$${t#*/} $(GO) vet ./cmd/... ./internal/... ./examples/... || exit 1; \
	done

vet:
	$(GO) vet ./...

# Static analysis: vet always; staticcheck when installed (CI pins
# $(STATICCHECK_VERSION); offline dev boxes may not have it).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# Registry benchmarks with allocation stats; emits BENCH_registry.json.
bench:
	sh scripts/bench.sh

# Matchmaking/subsumption benchmarks (serial and parallel matching) with
# allocation stats; emits BENCH_match.json.
bench-match:
	sh scripts/bench.sh match

# Chaos regression suite under the race detector: fault-injection unit
# tests plus the partition-heal, dup-storm and soak scenarios.
chaos:
	$(GO) test -race -run 'TestFault|TestProbation|TestChaos|TestRetryBackoff|TestStopCancels|TestFallback' ./internal/transport/memnet/... ./internal/discovery/... ./internal/node/... ./internal/integration/...
	$(GO) test -race -run 'TestDirectory' ./internal/federation/...
	$(GO) run ./cmd/simdisco -chaos

# Fuzz smoke: every fuzz target for a fixed 10 s each — the wire decoder,
# runtime.Dispatch (batch splitting + the reused decoder), the Turtle
# parser, the compiled subsumption closure against its RDFS
# forward-chaining oracle, the semantic match record against its
# profile-walking oracle, and the template decoder (front-coded IRIs,
# the expansion bound). A failing input is written under the package's
# testdata/fuzz/ and replays in plain `go test` from then on.
fuzz:
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime=10s
	$(GO) test ./internal/runtime -run '^$$' -fuzz '^FuzzDispatch$$' -fuzztime=10s
	$(GO) test ./internal/rdf -run '^$$' -fuzz '^FuzzParseTurtle$$' -fuzztime=10s
	$(GO) test ./internal/ontology -run '^$$' -fuzz '^FuzzClosureMatchesRDFS$$' -fuzztime=10s
	$(GO) test ./internal/match -run '^$$' -fuzz '^FuzzSemanticRecord$$' -fuzztime=10s
	$(GO) test ./internal/profile -run '^$$' -fuzz '^FuzzDecodeTemplate$$' -fuzztime=10s

# Fails when a Go file is not gofmt-formatted, and names it. The
# benchmark's build directory (.bench_build/) is not the repository's.
fmt-check:
	@out=$$(find . -name '*.go' -not -path './.bench_build/*' -exec gofmt -l {} +); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Fault-sweep benchmarks (availability/latency degradation curves);
# emits BENCH_chaos.json.
bench-chaos:
	sh scripts/bench.sh chaos

# Query result cache benchmarks (cached vs cache-off evaluate, purge
# deadline probes, E18 gateway WAN reduction); emits BENCH_qcache.json.
bench-qcache:
	sh scripts/bench.sh qcache

# Million-advert scale benchmarks (bytes/advert, publish/renew
# throughput, inverted subscription index vs linear notification scan);
# emits BENCH_scale.json. SEMDISCO_SCALE_HUGE=1 extends to 10^7 adverts.
bench-scale:
	sh scripts/bench.sh scale

# Crash-safe persistence benchmarks (WAL publish overhead incl. fsync
# group commit, cold-boot recovery from log vs compacted snapshot at
# 10^4..10^6 adverts); emits BENCH_wal.json.
bench-wal:
	sh scripts/bench.sh wal

# Transport throughput pipeline benchmarks (zero-alloc decode rates,
# datagram coalescing renews/s vs unbatched, E21 batching and
# delta-summary tables); emits BENCH_wire.json.
bench-wire:
	sh scripts/bench.sh wire

# Hierarchical federation benchmarks (E22 directory sweep: 10..500
# domains, convergence time/WAN bytes, cross-domain query latency,
# churn reconvergence); emits BENCH_fed.json.
bench-fed:
	sh scripts/bench.sh fed

# End-to-end benchmark (bench/, BENCHMARK.json) in alternating pairs:
# PARENT (default HEAD, i.e. the last commit) against the working tree,
# PAIRS runs a side of each workload in WORKLOADS (default 10, all four),
# ~50 s a pair. Prints medians, quartiles, pairs won and "every change
# run better" per metric; all output stays under .bench_build/pairs/.
bench-pairs:
	bash scripts/bench_pairs.sh $(or $(PARENT),HEAD) $(or $(PAIRS),10) $(WORKLOADS)

# Fails when OBSERVABILITY.md drifts from the metrics registered in code,
# or README.md's registryd flag table from the flags registryd registers.
docs-check:
	sh scripts/check_obs_docs.sh
	sh scripts/check_flag_docs.sh

# Non-test Go lines per package under cmd/, internal/ and examples/,
# plus the total: the size figure simplicity changes quote.
loc:
	sh scripts/loc.sh
