# Development gate for the geoblock reproduction.
#
#   make check   the tier-1 gate, in order: gofmt → build → vet → geolint
#                → test. The gofmt step fails when `gofmt -l` lists any
#                Go file in the tree (the benchmark's build directory
#                aside), so formatting drift never lands.
#                geolint (cmd/geolint, built from internal/lint) machine-
#                checks the engine's invariants — determinism (including
#                the cross-package clockflow reachability pass), context
#                flow, outcome handling, codec parity (wirecheck), the
#                metric namespace (telemetrycheck), and shared-snapshot
#                discipline (swapcheck) — against the committed
#                lint.baseline ratchet; it runs after vet so type errors
#                surface with the compiler's messages first, and before
#                the test suite so an invariant violation fails in
#                seconds, not after a full chaos run.
#   make lint    vet plus the geolint pass, against the baseline.
#   make lint-json  the same pass emitting machine-readable JSON to
#                lint.json (the CI artifact), baselined findings included
#                with "baselined": true.
#   make race    race-detector pass over every package (the chaos and
#                scheduler suites exercise the concurrent scan path),
#                plus an explicit run of the verdict edge's trimmed soak
#                shape — the heaviest reader/swap interleaving the suite
#                has — so it never hides behind test caching
#   make stress  50 uncached runs of the scheduler's cancellation,
#                determinism, canonical-order, and reorder-window
#                tests, so a flake rate fails the build instead of
#                passing on luck
#   make cover   coverage with ratcheted floors for the scan engine, the
#                fault-injection layer, the telemetry layer, the journal
#                (runstore), the verdict edge, and the lint suite
#   make fuzz    short-budget fuzz pass over the hostile-input decoders:
#                the journal's record decoder, the blockpage signature
#                matcher, and the verdict snapshot codec (one
#                `go test -fuzz` invocation per package; the corpus
#                seeds still run under plain `make check`)
#   make bench   the scan engine benchmarks (collect vs streaming,
#                sharded vs one-worker-per-country, instrumented vs bare)
#   make profile the streaming scan benchmark under the CPU and memory
#                profilers; inspect with `go tool pprof geoblock.test cpu.prof`
#   make fabric-test  the multi-process fabric integration: a lumscan
#                coordinator plus three scanworker processes (one
#                chaos-killed mid-shard) must journal byte-identically
#                to a single-process run of the same scan
#   make soak    the verdict edge's full soak: 32 concurrent clients, a
#                live snapshot swap mid-run, zero dropped or incorrect
#                verdicts, p99 service latency and in-process lookup
#                floors enforced (the same test runs in a trimmed shape
#                under plain `make check`)
#
# Study-level performance is measured by the repo's one benchmark,
# perfbench (a nested module, so `./...` skips it): run
# `python3 perfbench/run.py --workload top10k|durable|fabric` for a
# measurement and `cd perfbench && go test .` for its tests; see
# perfbench/README.md.

GO ?= go
GOFMT ?= gofmt

.PHONY: check fmt-check lint lint-json race stress cover fuzz bench profile fabric-test soak

check: fmt-check
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) run ./cmd/geolint -baseline lint.baseline ./...
	$(GO) test ./...

fmt-check:
	@out=$$(find . -name .git -prune -o -name .bench_build -prune -o -name '*.go' -print | xargs $(GOFMT) -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

lint:
	$(GO) vet ./...
	$(GO) run ./cmd/geolint -baseline lint.baseline ./...

lint-json:
	$(GO) run ./cmd/geolint -json -baseline lint.baseline ./... > lint.json

race:
	$(GO) test -race ./...
	$(GO) test -race ./cmd/worldd -run TestVerdictSoak -count=1

STRESS_TESTS = ^(TestCancellation|TestCancelled.*|TestDeterminismAcrossConcurrency|TestCanonicalOrder|TestReorderWindowBoundsBuffering)$$

stress:
	$(GO) test -count=50 ./internal/scanner -run '$(STRESS_TESTS)'

# Ratcheted coverage floors: set just below the level each package
# actually achieves, so coverage can only move up. Raise the floor when
# you raise the coverage; never lower it to make a build pass.
cover:
	@set -e; \
	check() { \
	  pct=$$($(GO) test -cover $$1 | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	  echo "$$1: $${pct}% (floor $$2%)"; \
	  awk -v p="$$pct" -v m="$$2" 'BEGIN { exit (p+0 >= m+0) ? 0 : 1 }' \
	    || { echo "FAIL: coverage for $$1 fell below the ratcheted floor of $$2%"; exit 1; }; \
	}; \
	check ./internal/scanner 90; \
	check ./internal/faults 94; \
	check ./internal/lint 92; \
	check ./internal/telemetry 95; \
	check ./internal/trace 89; \
	check ./internal/runstore 89; \
	check ./internal/fabric 79; \
	check ./internal/verdict 85

# `go test -fuzz` takes exactly one fuzz target per invocation, so each
# decoder gets its own line. The budget is deliberately small: this is a
# smoke pass to catch freshly broken invariants, not a campaign.
FUZZTIME ?= 10s

fuzz:
	$(GO) test ./internal/runstore -run FuzzDecodeRecord -fuzz FuzzDecodeRecord -fuzztime $(FUZZTIME)
	$(GO) test ./internal/blockpage -run FuzzMatchSignature -fuzz FuzzMatchSignature -fuzztime $(FUZZTIME)
	$(GO) test ./internal/verdict -run FuzzDecodeSnapshot -fuzz FuzzDecodeSnapshot -fuzztime $(FUZZTIME)

bench:
	$(GO) test . -run xxx -bench 'BenchmarkScan(Collect|Streaming|SkewedSharded|Instrumented|ColdVsResume)' -benchtime 3x

profile:
	$(GO) test . -run xxx -bench 'BenchmarkScanStreaming' -benchtime 10x \
		-cpuprofile cpu.prof -memprofile mem.prof -o geoblock.test
	@echo "inspect with: $(GO) tool pprof geoblock.test cpu.prof"

fabric-test:
	sh scripts/fabric_integration.sh

soak:
	GEOBLOCK_SOAK=full $(GO) test ./cmd/worldd -run TestVerdictSoak -v -count=1
