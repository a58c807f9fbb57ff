package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: github.com/gossipkit/noisyrumor
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkRumorSpreading/n=1e5/backend=loop         	       2	4767817130 ns/op	 2409712 B/op	      35 allocs/op
BenchmarkRumorSpreading/n=1e5/backend=batch-8      	       2	 312101022 ns/op	 2410456 B/op	      66 allocs/op
BenchmarkPhaseBatchHuge 	       1	3023176979 ns/op	 377.09 MB/s	     128 B/op	       4 allocs/op
PASS
ok  	github.com/gossipkit/noisyrumor	141.389s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Fatalf("platform: %q/%q", rep.Goos, rep.Goarch)
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Fatalf("cpu: %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[1]
	if b.Name != "BenchmarkRumorSpreading/n=1e5/backend=batch" {
		t.Fatalf("cpu suffix not stripped: %q", b.Name)
	}
	if b.Iterations != 2 || b.NsPerOp != 312101022 {
		t.Fatalf("bench fields: %+v", b)
	}
	if b.Extra["allocs/op"] != 66 {
		t.Fatalf("extra: %+v", b.Extra)
	}
	if rep.Benchmarks[2].Extra["MB/s"] != 377.09 {
		t.Fatalf("MB/s: %+v", rep.Benchmarks[2].Extra)
	}
	speedup := rep.Derived["rumor_spreading_n1e5_speedup_batch_over_loop"]
	if speedup < 15.2 || speedup > 15.4 {
		t.Fatalf("speedup = %v", speedup)
	}
}

func TestRunEndToEnd(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-label", "BENCH_TEST", "-timestamp=false"},
		strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Label != "BENCH_TEST" || rep.Schema != "noisyrumor-bench/v1" {
		t.Fatalf("report header: %+v", rep)
	}
	if rep.Generated != "" {
		t.Fatal("timestamp=false must omit Generated")
	}
}

func TestRunNoBenchmarks(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader("nothing here\n"), &out); err == nil {
		t.Fatal("empty input accepted")
	}
}

const sampleHuge = `goos: linux
BenchmarkRumorSpreadingHuge/n=1e7/backend=batch      	       2	42660470332 ns/op
BenchmarkRumorSpreadingHuge/n=1e7/backend=parallel/threads=4-4      	       2	10665117583 ns/op
PASS
`

func TestDeriveParallelSpeedup(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleHuge))
	if err != nil {
		t.Fatal(err)
	}
	speedup := rep.Derived["rumor_spreading_n1e7_speedup_parallel_over_batch"]
	if speedup < 3.9 || speedup > 4.1 {
		t.Fatalf("parallel speedup = %v", speedup)
	}
	if _, ok := rep.Derived["rumor_spreading_n1e5_speedup_batch_over_loop"]; ok {
		t.Fatal("n=1e5 speedup derived without both backends present")
	}
}

const sampleSweep = `
goos: linux
BenchmarkSweepGridPoints 	       2	  68105860 ns/op	       176.2 points/s	 5297544 B/op	   14517 allocs/op
PASS
`

func TestDeriveSweepThroughput(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleSweep))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Derived["sweep_grid_points_per_sec"]; got != 176.2 {
		t.Fatalf("sweep throughput = %v, want 176.2", got)
	}
	// Absent the benchmark, the key must stay absent.
	rep, err = parse(strings.NewReader(sampleHuge))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Derived["sweep_grid_points_per_sec"]; ok {
		t.Fatal("sweep throughput derived without the benchmark present")
	}
}

const sampleQuant = `
goos: linux
BenchmarkCensusPhaseStage2      	      20	   3200000 ns/op	       0 B/op	       0 allocs/op
BenchmarkCensusPhaseStage2Quant 	      20	    160000 ns/op	       0 B/op	       0 allocs/op
BenchmarkSweepGridPoints 	       2	  20619568 ns/op	       582.0 points/s	   98956 B/op	    1651 allocs/op
BenchmarkSweepGridPointsQuant 	       2	   2157284 ns/op	         0 dropped	        96.33 hit%	      5563 points/s	  152032 B/op	    4146 allocs/op
PASS
`

// TestDeriveQuantMetrics: the law-cache metrics — and the name-prefix
// disambiguation between the exact and Quant benchmarks — must derive
// correctly.
func TestDeriveQuantMetrics(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleQuant))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Derived["sweep_grid_points_per_sec"]; got != 582.0 {
		t.Fatalf("exact sweep throughput = %v, want 582 (prefix clash with Quant?)", got)
	}
	if got := rep.Derived["sweep_grid_points_per_sec_quant"]; got != 5563 {
		t.Fatalf("quantized sweep throughput = %v, want 5563", got)
	}
	if got := rep.Derived["sweep_grid_speedup_quant_over_exact"]; got < 9.5 || got > 9.6 {
		t.Fatalf("quantized sweep speedup = %v", got)
	}
	if got := rep.Derived["law_cache_hit_rate"]; got < 0.9632 || got > 0.9634 {
		t.Fatalf("law-cache hit rate = %v, want ≈ 0.9633", got)
	}
	if got := rep.Derived["stage2_phase_speedup_quant_over_exact"]; got != 20 {
		t.Fatalf("stage-2 phase speedup = %v, want 20", got)
	}
	// The dropped-stores count is emitted even at its healthy zero —
	// its absence, not its zero, is what signals an old bench run.
	if got, ok := rep.Derived["law_cache_dropped_stores"]; !ok || got != 0 {
		t.Fatalf("law_cache_dropped_stores = %v (present %v), want an explicit 0", got, ok)
	}
	// With only the exact pair present, the quant keys stay absent.
	rep, err = parse(strings.NewReader(sampleSweep))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"sweep_grid_points_per_sec_quant", "law_cache_hit_rate",
		"law_cache_dropped_stores",
		"stage2_phase_speedup_quant_over_exact", "sweep_grid_speedup_quant_over_exact"} {
		if _, ok := rep.Derived[key]; ok {
			t.Fatalf("%s derived without the quant benchmarks present", key)
		}
	}
}

const sampleObs = `
goos: linux
BenchmarkSweepGridPoints 	       2	  20619568 ns/op	       582.0 points/s	   98956 B/op	    1651 allocs/op
BenchmarkSweepGridPointsObs 	       2	  20825763 ns/op	       576.2 points/s	  101956 B/op	    1711 allocs/op
PASS
`

// TestDeriveObsOverhead: the instrumentation-overhead percentage must
// derive from the Obs/plain sweep pair — and the Obs benchmark's name,
// which also contains the plain one's as a prefix, must not clobber
// the exact throughput.
func TestDeriveObsOverhead(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleObs))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Derived["sweep_grid_points_per_sec"]; got != 582.0 {
		t.Fatalf("exact sweep throughput = %v, want 582 (prefix clash with Obs?)", got)
	}
	// 100·(582/576.2 − 1) ≈ 1.0066%.
	if got := rep.Derived["obs_overhead_pct"]; got < 1.0 || got > 1.02 {
		t.Fatalf("obs_overhead_pct = %v, want ≈ 1.01", got)
	}
	// Without the Obs benchmark the key stays absent.
	rep, err = parse(strings.NewReader(sampleSweep))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Derived["obs_overhead_pct"]; ok {
		t.Fatal("obs_overhead_pct derived without the Obs benchmark present")
	}
}

const sampleShardMerge = `
goos: linux
BenchmarkShardMerge 	     100	  11711760 ns/op	 1890944 B/op	   12022 allocs/op
PASS
`

// TestDeriveShardMergeSecs: the shard-merge wall time must land in
// seconds, and stay absent without the merge benchmark.
func TestDeriveShardMergeSecs(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleShardMerge))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Derived["sweep_shard_merge_secs"]; got < 0.0117 || got > 0.0118 {
		t.Fatalf("sweep_shard_merge_secs = %v, want ≈ 0.0117", got)
	}
	rep, err = parse(strings.NewReader(sampleSweep))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Derived["sweep_shard_merge_secs"]; ok {
		t.Fatal("sweep_shard_merge_secs derived without the ShardMerge benchmark present")
	}
}
