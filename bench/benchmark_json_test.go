package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the checkout root; decoding
// rejects any key it does not name.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func loadBenchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	return bf
}

// TestBenchmarkJSON holds BENCHMARK.json to its format and to this
// package: the same workloads, metrics, units, directions and bounds
// the benchmark reports, and every per-layer prediction naming an
// end-to-end metric and workloads that exist.
func TestBenchmarkJSON(t *testing.T) {
	bf := loadBenchmarkJSON(t)

	if len(bf.Command) == 0 || len(bf.Command) > 32 {
		t.Errorf("command has %d strings", len(bf.Command))
	}
	for _, c := range bf.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || slices.Contains(strings.Split(c, "/"), "..") {
			t.Errorf("command element %q", c)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if len(bf.Paths) < 1 || len(bf.Paths) > 16 {
		t.Errorf("%d paths", len(bf.Paths))
	}
	for _, p := range bf.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || slices.Contains(strings.Split(p, "/"), "..") {
			t.Errorf("path %q", p)
		}
		if fi, err := os.Stat(filepath.Join("..", p)); err != nil || !fi.IsDir() {
			t.Errorf("path %q is not a directory of the checkout", p)
		}
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("%s name %q used twice", kind, n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) < 2 || len(bf.Workloads) > 8 || len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1–200 characters", w.Name)
		}
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark (or the why differs)", i, w.Name, workloads[i].name)
		}
	}

	if len(bf.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bf.EndToEnd), len(e2eMetrics))
	}
	var setup float64
	widest := 0.0
	for i, m := range bf.EndToEnd {
		name("end-to-end", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q", m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if e := e2eMetrics[i]; m.Name != e.name || m.Unit != e.unit || m.Better != e.better || m.Bound != e.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, e)
		}
		if m.Name == "setup_s" {
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
			setup = m.Bound
		}
		widest = max(widest, m.Bound)
	}
	if setup == 0 || setup < widest {
		t.Errorf("setup_s must exist and carry the widest bound (%v < %v)", setup, widest)
	}

	if len(bf.PerLayer) < 1 || len(bf.PerLayer) > 128 || len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bf.PerLayer), len(layerMetrics))
	}
	e2e := map[string]bool{}
	for _, m := range e2eMetrics {
		e2e[m.name] = true
	}
	wl := map[string]bool{}
	for _, w := range workloads {
		wl[w.name] = true
	}
	for i, m := range bf.PerLayer {
		name("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		l := layerMetrics[i]
		if m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %s %s %s", i, m, l.name, l.unit, l.better)
		}
		for _, e := range l.moves {
			if !e2e[e] {
				t.Errorf("%s predicts a move of %q, not an end-to-end metric", l.name, e)
			}
		}
		for _, w := range append(slices.Clone(l.on), l.flat...) {
			if !wl[w] {
				t.Errorf("%s names workload %q, which does not exist", l.name, w)
			}
		}
		if len(l.moves) > 0 && len(l.on) == 0 {
			t.Errorf("%s predicts a move but names no workload it happens on", l.name)
		}
	}
}
