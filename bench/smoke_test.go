package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/gossipkit/noisyrumor/internal/sweep"
)

// TestSmokeMicroWorkload drives the whole pipeline — build, warm-up,
// reference written then checked, the timed loop, and the traced
// ladder with its fidelity checks — on a one-point grid, and checks
// that each mode reports exactly its BENCHMARK.json metric set.
func TestSmokeMicroWorkload(t *testing.T) {
	if runtime.NumCPU() < workers {
		t.Skipf("the benchmark needs %d CPUs", workers)
	}
	w := workload{name: "micro", why: "smoke test", grid: &sweep.Grid{
		Matrices: []string{"binary"}, Ks: []int{2}, ChannelEps: []float64{0.3}, Deltas: []float64{0.1},
		Ns: []int64{1e4}, ProtoEps: 0.4, Trials: 8,
	}}
	dir := t.TempDir()
	cfg := config{root: "..", tmpRoot: dir, refDir: dir, seed: 3, writeRef: true}
	var log bytes.Buffer
	check := func(res result, err error, want []string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%v\n%s", err, log.Bytes())
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("correct %v, %d of %d failed\n%s", res.Correct, res.Failed, res.Attempted, log.Bytes())
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
		}
		for _, name := range want {
			m, ok := res.Metrics[name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
				t.Errorf("metric %s = %+v (present %v)", name, m, ok)
			}
		}
	}

	var e2e []string
	for _, m := range e2eMetrics {
		e2e = append(e2e, m.name)
	}
	res, err := run(w, cfg, &log)
	check(res, err, e2e)
	for _, name := range e2e {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}

	var layers []string
	for _, m := range layerMetrics {
		layers = append(layers, m.name)
	}
	cfg.writeRef, cfg.trace, cfg.traceOut = false, true, filepath.Join(dir, "spans.ndjson")
	res, err = run(w, cfg, &log)
	check(res, err, layers)
	if fi, err := os.Stat(cfg.traceOut); err != nil || fi.Size() == 0 {
		t.Errorf("no spans written: %v", err)
	}
}
