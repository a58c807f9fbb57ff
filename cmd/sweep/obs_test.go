package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncWriter lets the test read the CLI's output while run() is still
// writing it from its own goroutine.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

var servingRe = regexp.MustCompile(`metrics: serving on (\S+)`)

// TestObsSmoke is the end-to-end observability acceptance test (and
// the `make obs-smoke` target): a real grid run with -metrics-addr
// must serve valid Prometheus text with the key metrics, a parseable
// JSON snapshot, a 200 /healthz, a usable pprof profile and an NDJSON
// trace file — while the checkpoint stays byte-identical to an
// uninstrumented run of the same spec.
func TestObsSmoke(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.ndjson")
	grid := []string{"grid", "-matrix", "uniform", "-k", "2", "-eps", "0.1,0.2,0.3",
		"-delta", "0.1", "-n", "2000", "-trials", "4", "-seed", "11", "-law-quant", "1e-3"}

	var out syncWriter
	done := make(chan error, 1)
	go func() {
		done <- run(append(grid,
			"-metrics-addr", "127.0.0.1:0",
			"-metrics-linger", "20s",
			"-trace-out", tracePath,
			"-checkpoint", filepath.Join(dir, "obs.ck.json"),
		), &out)
	}()

	// The listener binds (and prints its address) before the sweep
	// starts; poll briefly for the line.
	var addr string
	for i := 0; i < 100 && addr == ""; i++ {
		if m := servingRe.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if addr == "" {
		t.Fatalf("no 'metrics: serving on' line in output:\n%s", out.String())
	}
	base := "http://" + addr

	get := func(path string) (int, []byte) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, body
	}

	// Wait for the sweep itself to finish (all counters final) by
	// polling /metrics for the last grid point. The server then
	// lingers, so every scrape below sees the completed run.
	wantPoints := "sweep_points_total 3"
	var text string
	for i := 0; i < 200; i++ {
		_, body := get("/metrics")
		text = string(body)
		if strings.Contains(text, wantPoints) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, want := range []string{
		"# TYPE sweep_points_total counter",
		wantPoints,
		"# TYPE lawcache_hits_total counter",
		"lawcache_hits_total ",
		"lawcache_misses_total ",
		"# TYPE census_quant_budget histogram",
		"census_quant_budget_bucket{le=\"+Inf\"}",
		"census_quant_budget_sum",
		"sweep_trials_total 12",
		"census_phases_total{stage=\"1\"}",
		"lawcache_entries ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	if code, body := get("/healthz"); code != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("/healthz = %d %q, want 200 \"ok\\n\"", code, body)
	}

	_, jsBody := get("/metrics.json")
	var snap struct {
		Metrics []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(jsBody, &snap); err != nil {
		t.Errorf("/metrics.json does not parse: %v\n%s", err, jsBody)
	} else if len(snap.Metrics) == 0 {
		t.Error("/metrics.json has no metrics")
	}

	// A short CPU profile must come back as a parseable (gzipped
	// protobuf) pprof payload.
	if code, body := get("/debug/pprof/profile?seconds=1"); code != http.StatusOK {
		t.Errorf("/debug/pprof/profile = %d: %s", code, body)
	} else if len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
		t.Errorf("/debug/pprof/profile is not gzip (lead bytes % x)", body[:min(len(body), 2)])
	} else if zr, err := gzip.NewReader(bytes.NewReader(body)); err != nil {
		t.Errorf("profile gzip: %v", err)
	} else if _, err := io.ReadAll(zr); err != nil {
		t.Errorf("profile gzip body: %v", err)
	}

	// The trace file holds one JSON object per line.
	tf, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	lines := 0
	sc := bufio.NewScanner(tf)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %d is not JSON: %v\n%s", lines, err, sc.Text())
		}
		lines++
	}
	if lines == 0 {
		t.Error("trace file is empty")
	}

	// Same spec without any instrumentation: byte-identical checkpoint.
	var plain strings.Builder
	if err := run(append(grid, "-checkpoint", filepath.Join(dir, "plain.ck.json")), &plain); err != nil {
		t.Fatal(err)
	}
	obsCk, err := os.ReadFile(filepath.Join(dir, "obs.ck.json"))
	if err != nil {
		t.Fatal(err)
	}
	plainCk, err := os.ReadFile(filepath.Join(dir, "plain.ck.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(obsCk, plainCk) {
		t.Errorf("checkpoint differs with metrics on:\n%s\nvs\n%s", obsCk, plainCk)
	}

	// The lingering run must not be left behind when the test ends:
	// closing the listener is cleanup's job, but the linger keeps the
	// goroutine alive past it — just verify it has not failed so far.
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("instrumented run failed: %v", err)
		}
	default:
		// still lingering; fine
	}
}

// TestTraceWriteErrorFails: a trace the run could not write fails the
// run and names -trace-out, instead of exiting 0 with every event lost.
func TestTraceWriteErrorFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	err := run([]string{"grid", "-n", "2000", "-trials", "1", "-trace-out", "/dev/full"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-trace-out") {
		t.Fatalf("run = %v; want a -trace-out write error", err)
	}
}
