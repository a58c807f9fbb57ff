package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperimentQuick(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-run", "E14", "-quick"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "E14") || !strings.Contains(out, "Lemma 8") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "E99"}, io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestWriteMarkdownFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.md")
	if err := run([]string{"-run", "E12", "-quick", "-writefile", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	md := string(data)
	for _, want := range []string{"# EXPERIMENTS", "### E12", "Lemma 17"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q", want)
		}
	}
}

func TestWriteCSVDir(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-run", "E14", "-quick", "-csvdir", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 { // E14 emits three tables
		t.Fatalf("wrote %d CSVs, want 3", len(entries))
	}
	data, err := os.ReadFile(filepath.Join(dir, "e14_0.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "grid points") {
		t.Fatalf("csv content wrong: %s", data)
	}
}

func TestRunParallelBackendThreads(t *testing.T) {
	// The -backend/-threads axes must reach the trial runner: a quick
	// experiment on the parallel backend with a pinned thread count
	// must complete and report normally.
	var b strings.Builder
	if err := run([]string{"-run", "E1", "-quick", "-backend", "parallel", "-threads", "2"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "E1") {
		t.Fatalf("unexpected output:\n%s", b.String())
	}
}

func TestRunRejectsBadBackendAndThreads(t *testing.T) {
	if err := run([]string{"-run", "E1", "-quick", "-backend", "warp"}, io.Discard); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if err := run([]string{"-run", "E1", "-quick", "-threads", "-3"}, io.Discard); err == nil {
		t.Fatal("negative thread count accepted")
	}
}

// TestRunRejectsContradictoryFlags: combinations the trial runner
// would silently ignore must be rejected, one case per combination.
func TestRunRejectsContradictoryFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"backend with census engine", []string{"-run", "E1", "-quick", "-engine", "census", "-backend", "parallel"}},
		{"threads with census engine", []string{"-run", "E1", "-quick", "-engine", "census", "-threads", "8"}},
		{"threads without parallel backend", []string{"-run", "E1", "-quick", "-threads", "4"}},
		{"threads with batch backend", []string{"-run", "E1", "-quick", "-backend", "batch", "-threads", "4"}},
		{"law-quant with per-node engine", []string{"-run", "E1", "-quick", "-engine", "B", "-law-quant", "1e-3"}},
		{"census-tol with per-node engine", []string{"-run", "E1", "-quick", "-engine", "O", "-census-tol", "1e-9"}},
		{"law-quant on a non-sweep experiment without census engine",
			[]string{"-run", "E1", "-quick", "-law-quant", "1e-3"}},
		{"census-tol on a non-sweep experiment without census engine",
			[]string{"-run", "E4", "-quick", "-census-tol", "1e-9"}},
		{"law-quant on a sweep-driven experiment with a per-node engine",
			[]string{"-run", "E21", "-quick", "-engine", "B", "-law-quant", "1e-3"}},
	}
	for _, c := range cases {
		if err := run(c.args, io.Discard); err == nil {
			t.Errorf("%s: accepted silently", c.name)
		}
	}
	// The census engine without the per-node knobs must still run.
	var b strings.Builder
	if err := run([]string{"-run", "E1", "-quick", "-engine", "census"}, &b); err != nil {
		t.Fatalf("census engine rejected: %v", err)
	}
	if !strings.Contains(b.String(), "E1") {
		t.Fatalf("unexpected output:\n%s", b.String())
	}
	// The census knobs with the census engine — and with no explicit
	// engine at all (the sweep-driven E21/E22 run census regardless) —
	// are the intended uses.
	if err := run([]string{"-run", "E1", "-quick", "-engine", "census", "-law-quant", "1e-3", "-census-tol", "1e-9"},
		io.Discard); err != nil {
		t.Fatalf("census engine with knobs rejected: %v", err)
	}
	if err := run([]string{"-run", "E21", "-quick", "-law-quant", "1e-3"}, io.Discard); err != nil {
		t.Fatalf("E21 with -law-quant rejected: %v", err)
	}
}

// TestRejectedRunKeepsTraceFile: flags are checked before the sinks
// open, so a rejected invocation leaves an existing -trace-out file
// as it was.
func TestRejectedRunKeepsTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	want := []byte("keep\n")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-run", "E1", "-quick", "-engine", "census", "-backend", "batch",
		"-trace-out", path}, io.Discard); err == nil {
		t.Fatal("-backend with -engine census accepted")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("trace file after a rejected run = %q, %v; want %q", got, err, want)
	}
}

// TestTraceOutCensusPhases is the experiments half of `make
// obs-smoke`: a census-engine experiment with -trace-out writes one
// JSON object per line, census_phase events among them.
func TestTraceOutCensusPhases(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	if err := run([]string{"-run", "E1", "-quick", "-engine", "census", "-trace-out", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines, phases := 0, 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %d is not JSON: %v\n%s", lines, err, sc.Text())
		}
		lines++
		if ev.Ev == "census_phase" {
			phases++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if phases == 0 {
		t.Fatalf("no census_phase event in %d trace lines", lines)
	}
}
