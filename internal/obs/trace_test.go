package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestTracerEvents(t *testing.T) {
	var buf bytes.Buffer
	var clk ManualClock
	tr := NewTracer(&buf, &clk)
	clk.Advance(100)
	tr.Event("census_phase", F("stage", 1), F("n", 64))
	clk.Advance(50)
	tr.Event("lawcache_lookup", F("hit", true))
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 NDJSON lines, got %d: %q", len(lines), buf.String())
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if ev["ev"] != "census_phase" || ev["ts_ns"] != float64(100) || ev["stage"] != float64(1) {
		t.Fatalf("event 0 wrong: %v", ev)
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if ev["ev"] != "lawcache_lookup" || ev["ts_ns"] != float64(150) || ev["hit"] != true {
		t.Fatalf("event 1 wrong: %v", ev)
	}
	if tr.Err() != nil {
		t.Fatalf("tracer err = %v", tr.Err())
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Event("anything", F("k", "v"))
	if tr.Err() != nil {
		t.Fatalf("nil tracer Err = %v", tr.Err())
	}
	if NewTracer(nil, nil) != nil {
		t.Fatalf("NewTracer(nil, ...) must return nil")
	}
}

func TestTracerNilClock(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, nil)
	tr.Event("e")
	var ev map[string]any
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev["ts_ns"] != float64(0) {
		t.Fatalf("nil clock ts_ns = %v, want 0", ev["ts_ns"])
	}
}

// TestTracerConcurrentLines checks that events from concurrent
// goroutines never interleave within a line: every line must be a
// complete JSON object.
func TestTracerConcurrentLines(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, nil)
	var wg sync.WaitGroup
	const G, N = 8, 200
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < N; i++ {
				tr.Event("tick", F("g", g), F("i", i))
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != G*N {
		t.Fatalf("want %d lines, got %d", G*N, len(lines))
	}
	for i, l := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(l), &ev); err != nil {
			t.Fatalf("line %d is not a complete JSON object: %q", i, l)
		}
	}
}

type failWriter struct{ calls int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.calls++
	return 0, errFail
}

var errFail = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "write failed" }

func TestTracerStopsAfterWriteError(t *testing.T) {
	w := &failWriter{}
	tr := NewTracer(w, nil)
	tr.Event("a")
	tr.Event("b")
	tr.Event("c")
	if w.calls != 1 {
		t.Fatalf("tracer kept writing after error: %d calls", w.calls)
	}
	if tr.Err() == nil {
		t.Fatalf("Err must surface the first write error")
	}
}
