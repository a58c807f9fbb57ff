package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenCases pins the command's full stdout, byte for byte, on every
// engine, every sampling backend, both problems, the non-uniform
// matrices and the census knobs. Regenerate a file with
//
//	go run ./cmd/noisyrumor <args> > cmd/noisyrumor/testdata/<name>.golden
//
// only when an output is meant to change.
var goldenCases = []struct {
	name string
	args string
}{
	{"o_loop", "-n 3000 -k 3 -eps 0.3 -seed 1 -backend loop"},
	{"o_batch", "-n 3000 -k 3 -eps 0.3 -seed 1 -backend batch"},
	{"o_parallel_threads1", "-n 3000 -k 3 -eps 0.3 -seed 1 -backend parallel -threads 1"},
	{"o_parallel_threads2", "-n 3000 -k 3 -eps 0.3 -seed 1 -backend parallel -threads 2"},
	{"b", "-n 3000 -k 3 -eps 0.3 -seed 2 -engine B"},
	{"p", "-n 3000 -k 3 -eps 0.3 -seed 2 -engine P"},
	{"counts_trace", "-n 3000 -k 3 -eps 0.3 -seed 3 -counts 900,700,500 -trace"},
	{"matrix_cycle", "-n 3000 -k 3 -eps 0.1 -seed 4 -matrix cycle"},
	{"matrix_binary", "-n 3000 -k 2 -eps 0.3 -seed 5 -matrix binary"},
	{"census", "-n 1000000000 -k 3 -eps 0.25 -seed 6 -engine census"},
	{"census_quant_trace", "-n 1000000000 -k 3 -eps 0.25 -seed 6 -engine census -law-quant 1e-3 -trace"},
	{"census_tol", "-n 1000000000 -k 3 -eps 0.25 -seed 6 -engine census -census-tol 1e-10"},
	{"census_counts", "-n 1000000000 -k 3 -eps 0.25 -seed 7 -engine census -counts 400000000,350000000,250000000"},
}

func TestRunGolden(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := run(strings.Fields(c.args), &b); err != nil {
				t.Fatal(err)
			}
			if got := b.String(); got != string(want) {
				t.Errorf("noisyrumor %s: output differs from testdata/%s.golden\n--- got ---\n%s--- want ---\n%s",
					c.args, c.name, got, want)
			}
		})
	}
}
