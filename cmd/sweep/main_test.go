package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunGridSmoke(t *testing.T) {
	var b strings.Builder
	err := run([]string{"grid", "-matrix", "uniform", "-k", "3", "-eps", "0.15,0.35",
		"-delta", "0.1", "-n", "2000", "-trials", "3", "-seed", "7"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"2 points", "wilson95", "uniform"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunGridJSON(t *testing.T) {
	var b strings.Builder
	err := run([]string{"grid", "-matrix", "binary", "-k", "2", "-eps", "0.3",
		"-delta", "0.2", "-n", "1e3", "-trials", "3", "-json"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"points"`, `"error_budget"`, `"wilson_lo"`} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("JSON output missing %q:\n%s", want, b.String())
		}
	}
}

func TestRunBisectSmoke(t *testing.T) {
	var b strings.Builder
	err := run([]string{"bisect", "-matrix", "binary", "-k", "2", "-n", "1e4",
		"-delta", "0.05", "-proto-eps", "0.4", "-lo", "0.1", "-hi", "0.3",
		"-tol", "0.05", "-trials", "24", "-seed", "3"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"critical ε*", "LP majority-preservation boundary"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunScalingSmoke(t *testing.T) {
	var b strings.Builder
	err := run([]string{"scaling", "-decades", "3-5", "-trials", "3", "-seed", "2"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "fit: T(n) =") {
		t.Fatalf("output missing fit line:\n%s", b.String())
	}
}

// TestCheckpointResumeCLI: the -checkpoint flag must survive a
// re-invocation — the second run resumes (and reproduces) rather than
// failing or recomputing into a different result.
func TestCheckpointResumeCLI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	args := []string{"grid", "-matrix", "uniform", "-k", "3", "-eps", "0.2,0.3",
		"-delta", "0.1", "-n", "2000", "-trials", "3", "-seed", "5", "-checkpoint", path}
	var first, second strings.Builder
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("resumed run differs:\n%s\nvs\n%s", first.String(), second.String())
	}
	// A different seed against the same checkpoint must be rejected.
	bad := append([]string{}, args...)
	bad[len(bad)-3] = "6" // the -seed value
	if err := run(bad, io.Discard); err == nil {
		t.Fatal("checkpoint from another seed accepted")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := [][]string{
		{},
		{"warp"},
		{"grid", "-eps", "x"},
		{"grid", "-n", "1.5e2.5"},
		{"grid", "-k", "two"},
		{"grid", "-matrix", "warp"},
		{"bisect", "-n", "1e4,1e5"},
		{"bisect", "-lo", "0.3", "-hi", "0.1"},
		{"scaling", "-decades", "9-3"},
		{"scaling", "-decades", "0-6"},
		{"scaling", "-decades", "x"},
		{"scaling", "-n", "1000"},
		// The census knobs contradict a per-node cross-check engine —
		// every knob × mode pairing must be rejected, not ignored.
		{"grid", "-engine", "B", "-law-quant", "1e-3"},
		{"grid", "-engine", "O", "-census-tol", "1e-9"},
		{"bisect", "-engine", "P", "-law-quant", "1e-3"},
		{"bisect", "-engine", "O", "-census-tol", "1e-9"},
		{"scaling", "-engine", "P", "-law-quant", "1e-3"},
		{"scaling", "-engine", "B", "-census-tol", "1e-9"},
		// Out-of-range knob values surface as trial errors up front.
		{"grid", "-matrix", "uniform", "-k", "3", "-eps", "0.3", "-delta", "0.1",
			"-n", "2000", "-trials", "2", "-law-quant", "-1"},
		// -metrics-linger keeps a listener that only -metrics-addr starts.
		// The grid is tiny so that a missed rejection fails fast.
		{"grid", "-n", "2000", "-trials", "1", "-metrics-linger", "1s"},
		// Sharding needs a per-shard checkpoint, a well-formed spec, and
		// merge needs -out plus input files.
		{"grid", "-shard", "0/2"},
		{"grid", "-shard", "2/2", "-checkpoint", "x.json"},
		{"grid", "-shard", "banana", "-checkpoint", "x.json"},
		{"merge"},
		{"merge", "-out", "m.json"},
	}
	for _, args := range cases {
		err := run(args, io.Discard)
		if err == nil {
			t.Fatalf("args %v accepted", args)
		}
		// main prefixes "sweep:" once; the message must not repeat it.
		if strings.Contains(err.Error(), "sweep:") {
			t.Errorf("args %v: main would print %q", args, "sweep: "+err.Error())
		}
	}
	// A journal written by another sweep is rejected with one prefix too.
	ck := filepath.Join(t.TempDir(), "ck.json")
	grid := []string{"grid", "-matrix", "uniform", "-k", "3", "-eps", "0.3", "-delta", "0.1",
		"-n", "2000", "-trials", "1", "-checkpoint", ck}
	if err := run(grid, io.Discard); err != nil {
		t.Fatal(err)
	}
	err := run(append(grid, "-seed", "2"), io.Discard)
	if err == nil || strings.Contains(err.Error(), "sweep:") || !strings.Contains(err.Error(), "different sweep") {
		t.Errorf("journal of another sweep: main would print %q", "sweep: "+fmt.Sprint(err))
	}
}

// TestRejectedSpecHasNoSideEffects: a spec the sweep package rejects
// fails before cmd/sweep opens its trace or its checkpoint. A
// pre-written trace and a pre-written journal stay byte for byte, a
// fresh checkpoint path is not created, and the corrected command then
// runs against the same files.
func TestRejectedSpecHasNoSideEffects(t *testing.T) {
	for _, c := range []struct {
		name      string
		bad, good []string
	}{
		{"unknown matrix",
			[]string{"grid", "-matrix", "warp", "-k", "3", "-eps", "0.3", "-delta", "0.1", "-n", "2000", "-trials", "2"},
			[]string{"grid", "-matrix", "uniform", "-k", "3", "-eps", "0.3", "-delta", "0.1", "-n", "2000", "-trials", "2"}},
		{"inverted bracket",
			[]string{"bisect", "-matrix", "binary", "-k", "2", "-n", "1e4", "-delta", "0.05", "-proto-eps", "0.4",
				"-lo", "0.3", "-hi", "0.1", "-tol", "0.05", "-trials", "24", "-seed", "3"},
			[]string{"bisect", "-matrix", "binary", "-k", "2", "-n", "1e4", "-delta", "0.05", "-proto-eps", "0.4",
				"-lo", "0.1", "-hi", "0.3", "-tol", "0.05", "-trials", "24", "-seed", "3"}},
		{"bad channel",
			[]string{"scaling", "-matrix", "uniform", "-k", "3", "-eps", "2", "-decades", "3-4", "-trials", "2"},
			[]string{"scaling", "-matrix", "uniform", "-k", "3", "-eps", "0.3", "-decades", "3-4", "-trials", "2"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			trace, journal, fresh := filepath.Join(dir, "trace.ndjson"), filepath.Join(dir, "ck.json"), filepath.Join(dir, "fresh.json")
			if err := run(append(c.good, "-checkpoint", journal), io.Discard); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(trace, []byte("an earlier run's trace\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			before := map[string][]byte{}
			for _, p := range []string{trace, journal} {
				b, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				before[p] = b
			}
			for _, ck := range []string{journal, fresh} {
				if err := run(append(c.bad, "-trace-out", trace, "-checkpoint", ck), io.Discard); err == nil {
					t.Fatalf("%v accepted", c.bad)
				}
			}
			for p, want := range before {
				if got, err := os.ReadFile(p); err != nil || string(got) != string(want) {
					t.Errorf("%s changed by a rejected run (err %v)", filepath.Base(p), err)
				}
			}
			if _, err := os.Stat(fresh); !os.IsNotExist(err) {
				t.Errorf("a rejected run created its checkpoint (stat: %v)", err)
			}
			for _, ck := range []string{journal, fresh} {
				if err := run(append(c.good, "-trace-out", trace, "-checkpoint", ck), io.Discard); err != nil {
					t.Errorf("corrected run against %s: %v", filepath.Base(ck), err)
				}
			}
		})
	}
}

// TestRunGridQuantSmoke: the quantized hot path through the full CLI
// surface — the η = 10⁻³ grid must run and keep reporting a budget.
func TestRunGridQuantSmoke(t *testing.T) {
	var b strings.Builder
	err := run([]string{"grid", "-matrix", "uniform", "-k", "3", "-eps", "0.15,0.35",
		"-delta", "0.1", "-n", "2000", "-trials", "3", "-seed", "7",
		"-law-quant", "1e-3", "-census-tol", "1e-10"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2 points", "budget"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, b.String())
		}
	}
}

func TestParseInt64sScientific(t *testing.T) {
	got, err := parseInt64s("1000,1e6,2.5e3")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1000 || got[1] != 1_000_000 || got[2] != 2500 {
		t.Fatalf("parseInt64s = %v", got)
	}
	for _, bad := range []string{"1.5", "1e20", ""} {
		if _, err := parseInt64s(bad); err == nil {
			t.Fatalf("parseInt64s(%q) accepted", bad)
		}
	}
}

// TestChaosShardMergeCLI drives the full sharded workflow through the
// CLI surface: two -shard runs, `sweep merge`, and byte-identity of
// the merged journal with a single-host -checkpoint run.
func TestChaosShardMergeCLI(t *testing.T) {
	dir := t.TempDir()
	gridArgs := func(extra ...string) []string {
		return append([]string{"grid", "-matrix", "uniform", "-k", "3", "-eps", "0.2,0.3",
			"-delta", "0.1", "-n", "2000", "-trials", "3", "-seed", "5"}, extra...)
	}
	refPath := filepath.Join(dir, "ref.json")
	if err := run(gridArgs("-checkpoint", refPath), io.Discard); err != nil {
		t.Fatal(err)
	}
	shard0 := filepath.Join(dir, "shard0.json")
	shard1 := filepath.Join(dir, "shard1.json")
	if err := run(gridArgs("-shard", "0/2", "-checkpoint", shard0), io.Discard); err != nil {
		t.Fatal(err)
	}
	var shardOut strings.Builder
	if err := run(gridArgs("-shard", "1/2", "-checkpoint", shard1), &shardOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(shardOut.String(), "shard 1/2") {
		t.Fatalf("shard run output does not name its shard:\n%s", shardOut.String())
	}
	// Merging only one shard strictly must fail loudly.
	merged := filepath.Join(dir, "merged.json")
	if err := run([]string{"merge", "-out", merged, shard0}, io.Discard); err == nil {
		t.Fatal("strict merge with a missing shard accepted")
	}
	var mergeOut strings.Builder
	if err := run([]string{"merge", "-out", merged, shard0, shard1}, &mergeOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mergeOut.String(), "merged 2 shard(s) of 2") {
		t.Fatalf("merge output:\n%s", mergeOut.String())
	}
	ref, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if string(ref) != string(got) {
		t.Fatal("merged shard checkpoints differ from the single-host journal byte for byte")
	}
}
