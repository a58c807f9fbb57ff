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

.PHONY: build vet lint test race fuzz sweep-smoke obs-smoke chaos examples bench-test bench-quick bench-json profile layout layout-diff check clean

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
# determinism / obswrite / overflow, with budget and determinism
# interprocedural (see DESIGN.md "Statically enforced contracts").
# staticcheck and govulncheck run when installed (CI installs the
# pinned versions above); a bare or stale `//nrlint:allow` fails the
# build.
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

# fuzz runs every fuzz target, one `go test -fuzz` per target, each
# for FUZZTIME. FuzzMajorityLaw pins MajorityLaw to the frozen rival
# DP (bit for bit for point masses, within the two dropped masses at
# k = 2, 3 and k ≥ 4), bounds its dropped mass, checks
# that relabelling opinions relabels the law, and checks it against
# exhaustive enumeration at small ℓ. FuzzCheckpointJournal feeds the
# sweep's journal reader arbitrary bytes: it must never panic, and
# every entry it keeps must re-frame to exactly a line of the journal,
# carry a CRC that verifies and hold the result of the point its key
# names. FuzzResumeDamagedJournal damages a complete 6-point grid
# journal (flipped bytes, cut, duplicated or swapped lines) and resumes
# it through cmd/sweep: stdout, apart from "salvaged", and the finished
# journal must equal a fresh run's. Go's native fuzzer needs no
# download. A failing input is written under the
# package's testdata/fuzz/<target>/; rename it to say what it covers
# and commit it, so plain `go test` replays it. -fuzzminimizetime
# bounds the minimizing of each new input to 100 executions: under
# Go's default of 60 s a worker stops fuzzing while it minimizes, and
# FuzzCheckpointJournal spent most of a 20-s run that way.
FUZZTIME ?= 30s
FUZZ_TARGETS := internal/census:FuzzMajorityLaw internal/sweep:FuzzCheckpointJournal cmd/sweep:FuzzResumeDamagedJournal
fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
	    echo "fuzz $${t#*:} ($(FUZZTIME))"; \
	    $(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./$${t%%:*}; \
	done

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

# examples runs the facade's two fast examples, its only callers
# outside tests: quickstart and flock, under a second each. baselines
# (~11 s) and antsites (~65 s) stay build-only; `go build ./...`
# compiles them.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/flock

# bench-test vets and runs the unit and smoke tests of the repository
# benchmark (bench/, its own Go module built against this checkout).
# The root `go build ./...`, `go vet ./...` and `go test ./...` never
# reach a nested module, so without this target an internal API change
# could break the benchmark unseen. Offline, about 8 s; it writes only
# to temporary directories.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

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
# the threshold-straddling sweep grid — plus CPU profiles of the k = 3
# and k = 5 majority law alone and of a resume from a complete
# grid-k2-sized checkpoint journal, so hot-path and journal PRs start
# from a measured profile instead of a guess (see DESIGN.md §4).
# Inspect with
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
	$(GO) test -run '^$$' -bench 'BenchmarkSweepResume' -benchtime 50x -timeout 30m \
	    -cpuprofile profiles/resume_cpu.prof -o profiles/sweep.test ./internal/sweep
	@echo "profiles written to profiles/; inspect with: go tool pprof -top profiles/census_cpu.prof"

# layout prints where the trial's hot functions land in a fresh
# cmd/sweep build: address, size in bytes, address mod 64 and name.
# LAYOUT_FUNCS holds the Stage-2 law's functions and the samplers that
# draw each phase (dist's binomial and multinomial draws, noise's
# count split). Moving the law's functions by 32 bytes, with no change
# to their code, has cost grid-k35-exact 17 % (DESIGN.md §4); the
# samplers carry grid-k2. cmd/sweep links rng, dist, lp, noise and obs
# ahead of census, so an edit to any function of those packages that
# cmd/sweep links can move them as well as an edit to census.go,
# cert.go or law.go. Such a change runs `make layout-diff` against its
# parent and pairs grid-k35-exact (a law function moved) or grid-k2 (a
# sampler moved) when an offset moves.
LAYOUT_FUNCS := census\.(\(\*[A-Za-z]+\)\.)?(evalTernary|ternaryWindow|evalPoisson|setRow|convolve|tieSum|binomPMF|poissonPMF|evalBinary|binomSaddle)|dist\.(SampleMultinomial64|SampleBinomial64|binomialBTRS|binomialBINV)|noise\.\(\*Matrix\)\.SplitCounts64

# layout_of prints the LAYOUT_FUNCS lines of the cmd/sweep binary $(1).
define layout_of
$(GO) tool nm -size -sort address $(1) | \
	awk 'function hex(s,  i, v) { v = 0; for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1; return v } \
	     $$4 ~ /internal\/($(LAYOUT_FUNCS))$$/ { \
	       name = $$4; sub(/.*internal\//, "", name); \
	       printf "%s %6d %2d %s\n", $$1, $$2, hex(substr($$1, length($$1) - 1)) % 64, name }'
endef

layout:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/sweep" ./cmd/sweep && \
	$(call layout_of,"$$dir/sweep")

# layout-diff extracts LAYOUT_BASE (default HEAD) with git archive into
# a temporary directory, builds cmd/sweep there and in the working
# tree, filters both builds with the working tree's LAYOUT_FUNCS (so a
# change to the watched set still diffs against its parent), prints
# each function whose address mod 64 differs (or that only one side
# has) and exits 1 if any does. It runs offline. It is not a CI step:
# a deliberate move is settled by paired benchmark runs, not by this
# diff.
LAYOUT_BASE ?= HEAD
layout-diff:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && mkdir "$$dir/base" && \
	git archive "$(LAYOUT_BASE)" | tar -x -C "$$dir/base" && \
	(cd "$$dir/base" && $(GO) build -o "$$dir/base.bin" ./cmd/sweep) && \
	$(GO) build -o "$$dir/work.bin" ./cmd/sweep && \
	$(call layout_of,"$$dir/base.bin") > "$$dir/base.txt" && \
	$(call layout_of,"$$dir/work.bin") > "$$dir/work.txt" && \
	awk -v base="$(LAYOUT_BASE)" 'NR == FNR { was[$$4] = $$3; next } \
	     { now[$$4] = $$3; if (!($$4 in was)) { print $$4 ": only in the working tree"; moved++ } \
	       else if (was[$$4] != $$3) { printf "%s: mod 64 %d -> %d\n", $$4, was[$$4], $$3; moved++ } } \
	     END { for (f in was) if (!(f in now)) { print f ": only in " base; moved++ } \
	       if (moved) { printf "layout-diff: %d function(s) moved against %s\n", moved, base; exit 1 } \
	       printf "layout-diff: no offset mod 64 moved against %s (%d functions)\n", base, FNR }' \
	    "$$dir/base.txt" "$$dir/work.txt"

check: build lint race fuzz sweep-smoke obs-smoke chaos examples bench-test bench-quick

clean:
	$(GO) clean ./...
	rm -rf profiles
