package main

import (
	"io"
	"strings"
	"testing"
)

func TestParseCounts(t *testing.T) {
	got, err := parseCounts("10, 20,30")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("parseCounts = %v", got)
	}
	if _, err := parseCounts("10,x"); err == nil {
		t.Fatal("bad count accepted")
	}
}

// TestMakeMatrix: every family name -matrix documents makes a matrix
// (through sweep.BuildMatrix, the one name switch) and runs, and an
// unknown name is rejected.
func TestMakeMatrix(t *testing.T) {
	cases := []struct {
		name string
		k    string
		eps  string
		ok   bool
	}{
		{"uniform", "3", "0.2", true},
		{"binary", "2", "0.2", true},
		{"identity", "4", "0.2", true},
		{"cycle", "3", "0.1", true},
		{"reset", "3", "0.2", true},
		{"nope", "3", "0.2", false},
	}
	for _, c := range cases {
		err := run([]string{"-n", "200", "-k", c.k, "-eps", c.eps, "-matrix", c.name}, io.Discard)
		if c.ok && err != nil {
			t.Fatalf("-matrix %s: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Fatalf("-matrix %s accepted", c.name)
		}
	}
}

func TestRunRumorSmoke(t *testing.T) {
	// End-to-end through the flag surface, at a tiny scale.
	var b strings.Builder
	if err := run([]string{"-n", "300", "-k", "2", "-eps", "0.4", "-seed", "1", "-trace"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"consensus=", "memory:", "phase trace"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunPluralitySmoke(t *testing.T) {
	if err := run([]string{"-n", "300", "-k", "3", "-eps", "0.4",
		"-counts", "60,40,20", "-seed", "2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-matrix", "bogus"}, io.Discard); err == nil {
		t.Fatal("bogus matrix accepted")
	}
	if err := run([]string{"-n", "300", "-k", "3", "-eps", "0.4",
		"-counts", "1,2"}, io.Discard); err == nil {
		t.Fatal("count/k mismatch accepted")
	}
}

func TestRunParallelBackendSmoke(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "400", "-k", "2", "-eps", "0.4", "-seed", "3",
		"-backend", "parallel", "-threads", "2"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "consensus=") {
		t.Fatalf("output missing consensus line:\n%s", b.String())
	}
	if err := run([]string{"-n", "400", "-k", "2", "-eps", "0.4",
		"-backend", "warp"}, io.Discard); err == nil {
		t.Fatal("bogus backend accepted")
	}
}

// TestRunRejectsContradictoryFlags: flag combinations in which one
// flag would silently override or ignore the other must be rejected
// with an actionable message, one case per combination.
func TestRunRejectsContradictoryFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"backend with census engine", []string{"-n", "300", "-k", "2", "-eps", "0.4",
			"-engine", "census", "-backend", "parallel"}},
		{"threads with census engine", []string{"-n", "300", "-k", "2", "-eps", "0.4",
			"-engine", "census", "-threads", "8"}},
		{"threads without parallel backend", []string{"-n", "300", "-k", "2", "-eps", "0.4",
			"-threads", "4"}},
		{"threads with batch backend", []string{"-n", "300", "-k", "2", "-eps", "0.4",
			"-backend", "batch", "-threads", "4"}},
		{"correct with counts", []string{"-n", "300", "-k", "3", "-eps", "0.4",
			"-counts", "60,40,20", "-correct", "1"}},
		{"law-quant without census engine", []string{"-n", "300", "-k", "2", "-eps", "0.4",
			"-law-quant", "1e-3"}},
		{"law-quant with per-node engine", []string{"-n", "300", "-k", "2", "-eps", "0.4",
			"-engine", "B", "-law-quant", "1e-3"}},
		{"census-tol without census engine", []string{"-n", "300", "-k", "2", "-eps", "0.4",
			"-census-tol", "1e-9"}},
		{"census-tol with per-node engine", []string{"-n", "300", "-k", "2", "-eps", "0.4",
			"-engine", "P", "-census-tol", "1e-9"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := run(c.args, io.Discard); err == nil {
				t.Error("accepted silently")
			}
		})
	}
	// The near-miss combinations must still work: an explicit
	// -threads with -backend parallel, and -correct for rumor spreading.
	if err := run([]string{"-n", "300", "-k", "2", "-eps", "0.4",
		"-backend", "parallel", "-threads", "2"}, io.Discard); err != nil {
		t.Errorf("parallel+threads rejected: %v", err)
	}
	if err := run([]string{"-n", "300", "-k", "3", "-eps", "0.4", "-correct", "1"}, io.Discard); err != nil {
		t.Errorf("rumor -correct rejected: %v", err)
	}
	// The census knobs with the census engine are the intended use.
	if err := run([]string{"-n", "300", "-k", "2", "-eps", "0.4",
		"-engine", "census", "-law-quant", "1e-3", "-census-tol", "1e-9"}, io.Discard); err != nil {
		t.Errorf("census engine with -law-quant/-census-tol rejected: %v", err)
	}
}

// TestRunCensusPrintsErrorBudget: the aggregate engine's truncation
// budget must be visible in the default output and, cumulatively, in
// the -trace lines (DESIGN §2's promise).
func TestRunCensusPrintsErrorBudget(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "50000", "-k", "3", "-eps", "0.3", "-seed", "9",
		"-engine", "census", "-counts", "30000,15000,5000", "-trace"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"error budget: ", "Lemma-3 mass", "quantization leg", "budget=", "quant="} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Stage-2 phases truncate, so the final budget must be positive.
	if strings.Contains(out, "error budget: 0.000e+00") {
		t.Fatalf("census run reports a zero budget after Stage 2:\n%s", out)
	}
	// Rumor spreading on the census engine must print it too.
	b.Reset()
	if err := run([]string{"-n", "50000", "-k", "2", "-eps", "0.4", "-seed", "9",
		"-engine", "census"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "error budget: ") {
		t.Fatalf("rumor-spreading census output missing the budget:\n%s", b.String())
	}
}

func TestRunCensusEngineSmoke(t *testing.T) {
	// The n ≥ 10⁹ one-liner through the flag surface: a population
	// beyond int32 range must parse, run on the aggregate engine and
	// report within seconds.
	var b strings.Builder
	if err := run([]string{"-n", "2200000000", "-k", "2", "-eps", "0.4", "-seed", "4",
		"-engine", "census", "-counts", "1200000000,1000000000"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"engine=census", "consensus=true", "census engine tracks"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if err := run([]string{"-engine", "warp"}, io.Discard); err == nil {
		t.Fatal("bogus engine accepted")
	}
}

// TestErrorLineOnePrefix: every rejection reaches stderr behind exactly
// one "noisyrumor: ", whether the facade (which prefixes its own
// errors) or the command raised it, on the per-node and census paths.
func TestErrorLineOnePrefix(t *testing.T) {
	for _, c := range []struct {
		name string
		args string
		want string
	}{
		{"no strict plurality", "-n 300 -k 3 -counts 100,100,3", "no strict plurality"},
		{"census no strict plurality", "-n 300 -k 3 -engine census -counts 100,100,3", "no strict plurality"},
		{"source out of range", "-n 300 -k 3 -correct 5", "out of range"},
		{"census source out of range", "-n 300 -k 3 -engine census -correct 5", "out of range"},
		{"negative count", "-n 300 -k 3 -counts -1,100,50", "negative"},
		{"counts past N", "-n 300 -k 3 -counts 200,100,50", "beyond N=300"},
		{"count and k mismatch", "-n 300 -k 3 -counts 1,2", "2 counts for k=3"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := run(strings.Fields(c.args), io.Discard)
			if err == nil {
				t.Fatal("accepted")
			}
			line := errorLine(err)
			if !strings.HasPrefix(line, "noisyrumor: ") || strings.Count(line, "noisyrumor:") != 1 || !strings.Contains(line, c.want) {
				t.Errorf("stderr line %q: want one leading \"noisyrumor: \" and %q", line, c.want)
			}
		})
	}
}
