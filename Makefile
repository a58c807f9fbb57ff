# Development entry points. `make check` is the tier-1 gate CI runs.

GO ?= go

# Benchmarks that are fast enough for CI (one iteration each): the
# E-suite regeneration benches at quick scale plus the engine-phase
# micro-benches for every backend (loop, batch, parallel) and the
# census engine (n-independent, so even its n=10⁹ phases are CI-fast).
# The n=10⁵/10⁷ headline benches are excluded here and run by
# `make bench-json`.
QUICK_BENCH := 'BenchmarkE[0-9]+|BenchmarkPhase(Process|(Batch|Parallel)(Process|.*LargeN))|BenchmarkCensusPhase|BenchmarkMajorityLaw|BenchmarkSweep'

# Headline perf-trajectory benches recorded in BENCH_<n>.json.
HEADLINE_BENCH := 'BenchmarkRumorSpreading($$|Huge)|BenchmarkPhase(Batch|Parallel)Huge|BenchmarkAblationEngine|BenchmarkCensusSweepHuge'

# Next free perf-trajectory index, auto-detected so `make bench-json`
# appends a new BENCH_<n>.json instead of overwriting the last one.
# Override explicitly (`make bench-json BENCH_N=3`) to regenerate a
# specific point.
BENCH_N ?= $(shell i=1; while [ -e BENCH_$$i.json ]; do i=$$((i+1)); done; echo $$i)

.PHONY: build vet lint test race fuzz sweep-smoke obs-smoke chaos bench-test bench-quick bench-json profile layout check clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Versions of the external linters the CI lint job installs. Local
# runs use them only when already on PATH: this repo builds offline,
# so `make lint` must not download tools (go.mod has no `tool`
# directive for the same reason).
STATICCHECK_VERSION := 2025.1.1
GOVULNCHECK_VERSION := v1.1.4

# lint is the static contract gate: gofmt, go vet, then nrlint — the
# project's own analyzer suite, one pass per contract: budget /
# determinism / obswrite / overflow / rngfork, with budget and
# determinism interprocedural (see DESIGN.md "Statically enforced
# contracts"). staticcheck and govulncheck run when installed (CI
# installs the pinned versions above); a bare or stale
# `//nrlint:allow` fails the build.
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
	    echo "gofmt: needs formatting:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/nrlint
	@if command -v staticcheck >/dev/null 2>&1; then 	    echo "staticcheck ./..."; staticcheck ./...; 	else echo "staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; fi
	@if command -v govulncheck >/dev/null 2>&1; then 	    echo "govulncheck ./..."; govulncheck ./...; 	else echo "govulncheck not installed; skipping (CI pins $(GOVULNCHECK_VERSION))"; fi

# -shuffle=on: tests must not depend on in-file ordering; the shuffle
# seed is printed on failure for reproduction (-shuffle=<seed>).
test:
	$(GO) test -shuffle=on ./...

# -timeout 30m: the race detector is ~20× on the E-suite, which puts
# single-core machines past go test's default 10-minute per-package
# timeout even though every test passes.
race:
	$(GO) test -race -shuffle=on -timeout 30m ./...

# fuzz runs the majority-law fuzz target for FUZZTIME: FuzzMajorityLaw
# pins MajorityLaw to the frozen rival DP (bit for bit at k = 3 and for
# point masses, within the two dropped masses at k = 2 and k ≥ 4), bounds its
# dropped mass, checks that relabelling opinions relabels the law, and
# checks it against exhaustive enumeration at small ℓ. Go's native fuzzer needs no download. A failing input is
# written under internal/census/testdata/fuzz/FuzzMajorityLaw/; rename
# it to say what it covers and commit it, so plain `go test` replays it.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzMajorityLaw$$' -fuzztime $(FUZZTIME) ./internal/census

# A tiny 3-point grid through the cmd/sweep flag surface under the
# race detector: proves the sweep worker fan-out end to end.
sweep-smoke:
	$(GO) run -race ./cmd/sweep grid -matrix uniform -k 3 -eps 0.15,0.25,0.35 \
	    -delta 0.1 -n 2000 -trials 4 -workers 4 -seed 7

# End-to-end observability smoke for both CLIs that wire obs.Open:
# an in-process 3-point `sweep grid` with -metrics-addr, asserting
# /metrics serves the key metric families (sweep_points_total,
# lawcache_{hits,misses}_total, the census_quant_budget histogram),
# /healthz answers 200, pprof returns a parseable profile, the NDJSON
# trace parses, and the checkpoint is byte-identical to an
# uninstrumented run; plus `experiments -run E1 -quick -engine census
# -trace-out`, whose trace must parse and carry census_phase events.
obs-smoke:
	$(GO) test -run 'TestObsSmoke|TestTraceOutCensusPhases' -count=1 -v ./cmd/sweep ./cmd/experiments

# chaos is the failure-path gate: test doubles at the sweep's two
# seams (a journal writer whose appends tear mid-line, a trial that
# panics) plus a shard journal torn by hand, against the sharded sweep
# workflow. It asserts the merged, resumed and compacted journals stay
# byte-identical to a fault-free single-host run at 1 and 8 workers,
# that a panic quarantines only its point, and that the breaker and
# bisect abort. Runs under -race and -count=1: the point is to run the
# failure paths, never to replay a cached pass.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 ./internal/sweep ./cmd/sweep

# bench-test runs the unit and smoke tests of the repository benchmark
# (bench/, its own Go module built against this checkout). The root
# `go test ./...` never reaches a nested module, so without this target
# an internal API change could break the benchmark unseen. Offline,
# about 8 s; it writes only to temporary directories.
bench-test:
	cd bench && $(GO) test ./...

bench-quick:
	$(GO) test -run '^$$' -bench $(QUICK_BENCH) -benchtime 1x ./...

# bench-json reruns the headline benchmarks at full size (several
# minutes: it contains full n=10⁵ and n=10⁷ protocol executions) and
# snapshots them into BENCH_$(BENCH_N).json.
# bench-json refuses to snapshot a perf trajectory point from a tree
# that fails the static contract gate.
bench-json: lint
	{ $(GO) test -run '^$$' -bench $(HEADLINE_BENCH) -benchtime 2x -timeout 60m . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkPhase(Batch|Parallel)Huge' -benchtime 2x -timeout 60m ./internal/model ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkCensusPhase(Stage1|Huge)' -benchtime 2x -timeout 60m ./internal/census ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkCensusPhaseStage2|BenchmarkMajorityLaw' -benchtime 20x -timeout 60m ./internal/census ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkSweepGridPoints|BenchmarkShardMerge' -benchtime 10x -timeout 60m ./internal/sweep ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkNrlintModule' -benchtime 1x -timeout 30m ./cmd/nrlint ; } \
	| tee /dev/stderr \
	| $(GO) run ./cmd/benchjson -label BENCH_$(BENCH_N) > BENCH_$(BENCH_N).json

# profile records CPU and allocation pprof profiles of the two Stage-2
# hot paths — the n = 10⁹ census Stage-2 phase (exact + quantized) and
# the threshold-straddling sweep grid — plus a CPU profile of the k = 3
# and k = 5 majority law alone, so hot-path PRs start from a measured
# profile instead of a guess (see DESIGN.md §4). Inspect with
#   go tool pprof -top profiles/census_cpu.prof
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkCensusPhaseStage2' -benchtime 50x -timeout 30m \
	    -cpuprofile profiles/census_cpu.prof -memprofile profiles/census_mem.prof \
	    -o profiles/census.test ./internal/census
	$(GO) test -run '^$$' -bench 'BenchmarkMajorityLaw/k=[35]/' -benchtime 20x -timeout 30m \
	    -cpuprofile profiles/law_cpu.prof -o profiles/census.test ./internal/census
	$(GO) test -run '^$$' -bench 'BenchmarkSweepGridPoints' -benchtime 5x -timeout 30m \
	    -cpuprofile profiles/sweep_cpu.prof -memprofile profiles/sweep_mem.prof \
	    -o profiles/sweep.test ./internal/sweep
	@echo "profiles written to profiles/; inspect with: go tool pprof -top profiles/census_cpu.prof"

# layout prints where the Stage-2 law's hot functions land in a fresh
# cmd/sweep build: address, size in bytes and address mod 64. Moving
# them by 32 bytes, with no change to their code, has cost
# grid-k35-exact 17 % (DESIGN.md §4),
# so a change to census.go, cert.go or law.go diffs this output against
# its parent's and pairs grid-k35-exact when an offset moves.
LAYOUT_FUNCS := evalTernary|binomRow|setWinner|evalPoisson|setRow|convolve|tieSum|binomPMF|poissonPMF|evalBinary|binomSaddle
layout:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/sweep" ./cmd/sweep && \
	$(GO) tool nm -size -sort address "$$dir/sweep" | \
	awk 'function hex(s,  i, v) { v = 0; for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1; return v } \
	     $$4 ~ /internal\/census\.(\(\*[A-Za-z]+\)\.)?($(LAYOUT_FUNCS))$$/ { \
	       name = $$4; sub(/.*internal\/census\./, "", name); \
	       printf "%s %6d %2d %s\n", $$1, $$2, hex(substr($$1, length($$1) - 1)) % 64, name }'

check: build lint race fuzz sweep-smoke obs-smoke chaos bench-test bench-quick

clean:
	$(GO) clean ./...
	rm -rf profiles
