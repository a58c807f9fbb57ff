// Command benchjson converts `go test -bench` output (read from
// stdin) into the repository's perf-trajectory JSON format, so each
// PR can check in a BENCH_<n>.json snapshot that later PRs diff
// against.
//
//	go test -run '^$' -bench . -benchtime 2x . ./internal/model | \
//	    go run ./cmd/benchjson -label BENCH_1 > BENCH_1.json
//
// When both RumorSpreading backend benchmarks are present, the tool
// also emits the batch-over-loop speedup, the headline number of the
// sampling-backend engine.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

// Report is the BENCH_<n>.json schema.
type Report struct {
	Schema     string             `json:"schema"`
	Label      string             `json:"label"`
	Generated  string             `json:"generated,omitempty"`
	Goos       string             `json:"goos,omitempty"`
	Goarch     string             `json:"goarch,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	Benchmarks []Benchmark        `json:"benchmarks"`
	Derived    map[string]float64 `json:"derived,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	label := fs.String("label", "BENCH", "snapshot label (e.g. BENCH_1)")
	stamp := fs.Bool("timestamp", true, "include the generation time")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := parse(in)
	if err != nil {
		return err
	}
	rep.Label = *label
	if *stamp {
		rep.Generated = time.Now().UTC().Format(time.RFC3339)
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// cpuSuffix strips the trailing -GOMAXPROCS that `go test` appends to
// benchmark names on multi-proc runs.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

func parse(in io.Reader) (*Report, error) {
	rep := &Report{Schema: "noisyrumor-bench/v1"}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		b := Benchmark{
			Name:       cpuSuffix.ReplaceAllString(fields[0], ""),
			Iterations: iters,
			NsPerOp:    ns,
		}
		// Remaining fields come in "<value> <unit>" pairs
		// (MB/s, B/op, allocs/op, custom units).
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if b.Extra == nil {
				b.Extra = map[string]float64{}
			}
			b.Extra[fields[i+1]] = v
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	derive(rep)
	return rep, nil
}

// derive computes cross-benchmark ratios of interest.
func derive(rep *Report) {
	var loop, batch, hugeBatch, hugeParallel float64
	var phaseBatchHuge, censusPhaseHuge, censusSweepHuge float64
	var sweepPointsPerSec, sweepPointsPerSecQuant, lawCacheHitRate float64
	var stage2Phase, stage2PhaseQuant, lawCacheDropped float64
	var sweepPointsPerSecObs, nrlintModule float64
	var shardMerge float64
	var haveDropped bool
	for _, b := range rep.Benchmarks {
		switch {
		case strings.Contains(b.Name, "NrlintModule"):
			nrlintModule = b.NsPerOp
		case strings.Contains(b.Name, "ShardMerge"):
			shardMerge = b.NsPerOp
		case strings.Contains(b.Name, "SweepGridPointsQuant"):
			// Must precede the plain SweepGridPoints case: the quantized
			// benchmark's name contains the exact one's as a prefix.
			sweepPointsPerSecQuant = b.Extra["points/s"]
			lawCacheHitRate = b.Extra["hit%"]
			lawCacheDropped, haveDropped = b.Extra["dropped"]
		case strings.Contains(b.Name, "SweepGridPointsObs"):
			// Same prefix trap: must precede plain SweepGridPoints.
			sweepPointsPerSecObs = b.Extra["points/s"]
		case strings.Contains(b.Name, "SweepGridPoints"):
			sweepPointsPerSec = b.Extra["points/s"]
		case strings.Contains(b.Name, "CensusPhaseStage2Quant"):
			// Same prefix trap as the sweep pair.
			stage2PhaseQuant = b.NsPerOp
		case strings.Contains(b.Name, "CensusPhaseStage2"):
			stage2Phase = b.NsPerOp
		case strings.HasSuffix(b.Name, "backend=loop") && strings.Contains(b.Name, "RumorSpreading/"):
			loop = b.NsPerOp
		case strings.HasSuffix(b.Name, "backend=batch") && strings.Contains(b.Name, "RumorSpreading/"):
			batch = b.NsPerOp
		case strings.HasSuffix(b.Name, "backend=batch") && strings.Contains(b.Name, "RumorSpreadingHuge/"):
			hugeBatch = b.NsPerOp
		case strings.Contains(b.Name, "backend=parallel") && strings.Contains(b.Name, "RumorSpreadingHuge/"):
			hugeParallel = b.NsPerOp
		case strings.Contains(b.Name, "PhaseBatchHuge"):
			phaseBatchHuge = b.NsPerOp
		case strings.Contains(b.Name, "CensusPhaseHuge"):
			censusPhaseHuge = b.NsPerOp
		case strings.Contains(b.Name, "CensusSweepHuge"):
			censusSweepHuge = b.NsPerOp
		}
	}
	add := func(key string, v float64) {
		if rep.Derived == nil {
			rep.Derived = map[string]float64{}
		}
		rep.Derived[key] = v
	}
	if loop > 0 && batch > 0 {
		add("rumor_spreading_n1e5_speedup_batch_over_loop", loop/batch)
	}
	if hugeBatch > 0 && hugeParallel > 0 {
		add("rumor_spreading_n1e7_speedup_parallel_over_batch", hugeBatch/hugeParallel)
	}
	// The census headline: same phase workload at the largest common
	// n (10⁷), aggregate census engine vs batch backend.
	if phaseBatchHuge > 0 && censusPhaseHuge > 0 {
		add("phase_n1e7_speedup_census_over_batch", phaseBatchHuge/censusPhaseHuge)
	}
	// A full n = 10⁹ census sweep against a full n = 10⁷ batch run:
	// how much further the aggregate engine reaches end to end.
	if hugeBatch > 0 && censusSweepHuge > 0 {
		add("full_run_census_n1e9_speedup_over_batch_n1e7", hugeBatch/censusSweepHuge)
	}
	// The phase-diagram instrument's throughput: threshold-straddling
	// grid points (n = 10⁵, 25 trials each) evaluated per second,
	// exact and under the η = 10⁻³ Stage-2 law cache.
	if sweepPointsPerSec > 0 {
		add("sweep_grid_points_per_sec", sweepPointsPerSec)
	}
	if sweepPointsPerSecQuant > 0 {
		add("sweep_grid_points_per_sec_quant", sweepPointsPerSecQuant)
	}
	if sweepPointsPerSec > 0 && sweepPointsPerSecQuant > 0 {
		add("sweep_grid_speedup_quant_over_exact", sweepPointsPerSecQuant/sweepPointsPerSec)
	}
	// Instrumentation overhead: how much slower the exact grid runs
	// with live registry metrics on every layer (BenchmarkSweepGrid-
	// PointsObs vs the uninstrumented headline), in percent. The
	// observability contract (DESIGN.md §2) budgets this at ≤ 2.
	if sweepPointsPerSec > 0 && sweepPointsPerSecObs > 0 {
		add("obs_overhead_pct", 100*(sweepPointsPerSec/sweepPointsPerSecObs-1))
	}
	// Wall-clock seconds to merge four shard journals (512 points)
	// into the single-host checkpoint — the fixed cost a sharded sweep
	// pays over running on one host.
	if shardMerge > 0 {
		add("sweep_shard_merge_secs", shardMerge/1e9)
	}
	// The realized law-cache hit rate of the quantized sweep (0..1).
	if lawCacheHitRate > 0 {
		add("law_cache_hit_rate", lawCacheHitRate/100)
	}
	// Store attempts the quantized sweep's cache refused at capacity.
	// Zero is the healthy value and is emitted deliberately: a nonzero
	// count means the bench grid no longer fits maxLawCacheEntries and
	// the hit rate above is understating the steady-state cost.
	if haveDropped {
		add("law_cache_dropped_stores", lawCacheDropped)
	}
	// One n = 10⁹ Stage-2 phase, exact vs steady-state quantized — the
	// per-phase view of the law cache.
	if stage2Phase > 0 && stage2PhaseQuant > 0 {
		add("stage2_phase_speedup_quant_over_exact", stage2Phase/stage2PhaseQuant)
	}
	// Wall-clock seconds for one full-module nrlint run (all seven
	// analyzers, bottom-up facts): the cost every `make lint` and CI
	// lint job pays, tracked so the interprocedural layer's growth
	// stays visible in the perf trajectory.
	if nrlintModule > 0 {
		add("nrlint_module_secs", nrlintModule/1e9)
	}
}
