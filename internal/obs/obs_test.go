package obs

import (
	"math"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Get-or-create: same name returns the same instrument.
	if c2 := r.Counter("test_total", "help"); c2 != c {
		t.Fatalf("re-registration returned a different counter")
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil instruments must read zero")
	}
	var v *CounterVec
	v.With("x").Inc() // nil vec → nil child → no-op
	var gv *GaugeVec
	gv.With("x").Set(2)
	var hv *HistogramVec
	hv.With("x").Observe(2)
}

func TestNilRegistryYieldsWorkingInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("detached_total", "")
	c.Inc()
	if c.Value() != 1 {
		t.Fatalf("detached counter = %d, want 1", c.Value())
	}
	h := r.Histogram("detached_hist", "", LogBuckets(1, 10, 3))
	h.Observe(5)
	if h.Count() != 1 {
		t.Fatalf("detached histogram count = %d, want 1", h.Count())
	}
	if fams := r.sortedFamilies(); fams != nil {
		t.Fatalf("nil registry must expose nothing, got %d families", len(fams))
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "")
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2.0 {
		t.Fatalf("gauge = %v, want 2", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", "", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 10, 50, 1000} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // lands in +Inf, poisons sum only
	cum, count, _ := h.snapshot()
	if count != 7 {
		t.Fatalf("count = %d, want 7", count)
	}
	// v ≤ 1: {0.5, 1} → 2; v ≤ 10: +{2, 10} → 4; v ≤ 100: +{50} → 5; +Inf: +{1000, NaN} → 7.
	want := []int64{2, 4, 5, 7}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cum[%d] = %d, want %d (full: %v)", i, cum[i], want[i], cum)
		}
	}
	if h.Sum() == h.Sum() { // NaN sum: NaN != NaN
		t.Fatalf("sum should be NaN after observing NaN, got %v", h.Sum())
	}
}

func TestHistogramSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_sum_hist", "", LogBuckets(1e-6, 4, 10))
	h.Observe(0.25)
	h.Observe(0.75)
	if got := h.Sum(); got != 1.0 {
		t.Fatalf("sum = %v, want 1", got)
	}
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(1e-6, 10, 4)
	want := []float64{1e-6, 1e-5, 1e-4, 1e-3}
	if len(b) != len(want) {
		t.Fatalf("len = %d, want %d", len(b), len(want))
	}
	for i := range want {
		if math.Abs(b[i]-want[i]) > want[i]*1e-12 {
			t.Fatalf("b[%d] = %v, want %v", i, b[i], want[i])
		}
	}
	if LogBuckets(0, 10, 4) != nil || LogBuckets(1, 1, 4) != nil || LogBuckets(1, 10, 0) != nil {
		t.Fatalf("degenerate LogBuckets inputs must return nil")
	}
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("labeled_total", "", "worker")
	v.With("0").Add(3)
	v.With("1").Inc()
	if v.With("0").Value() != 3 || v.With("1").Value() != 1 {
		t.Fatalf("label children mixed up: w0=%d w1=%d", v.With("0").Value(), v.With("1").Value())
	}
	// Same child back on repeated With.
	if v.With("0") != v.With("0") {
		t.Fatalf("With must return a stable child")
	}
}

func TestSpecMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("conflict_total", "")
	mustPanic(t, "kind mismatch", func() { r.Gauge("conflict_total", "") })
	r.CounterVec("labeled_conflict_total", "", "a")
	mustPanic(t, "label schema mismatch", func() { r.CounterVec("labeled_conflict_total", "", "b") })
	mustPanic(t, "label arity mismatch", func() {
		r.CounterVec("labeled_conflict_total", "", "a").With("x", "y").Inc()
	})
	mustPanic(t, "invalid name", func() { r.Counter("1bad", "") })
	mustPanic(t, "invalid label", func() { r.CounterVec("ok_total2", "", "bad-label") })
}

func TestAttachCounter(t *testing.T) {
	r := NewRegistry()
	owned := &Counter{}
	owned.Add(42)
	r.AttachCounter("attached_total", "", owned)
	// The registry now exports the externally owned counter's value.
	for _, f := range r.sortedFamilies() {
		if f.name != "attached_total" {
			continue
		}
		for _, c := range f.sortedChildren() {
			if c.counter.Value() != 42 {
				t.Fatalf("attached counter exports %d, want 42", c.counter.Value())
			}
			return
		}
	}
	t.Fatalf("attached_total not found in registry")
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	n := 7.0
	r.GaugeFunc("live_gauge", "", func() float64 { return n })
	fams := r.sortedFamilies()
	if len(fams) != 1 {
		t.Fatalf("want 1 family, got %d", len(fams))
	}
	c := fams[0].sortedChildren()[0]
	if c.gaugeFn() != 7 {
		t.Fatalf("gaugeFn = %v, want 7", c.gaugeFn())
	}
	n = 9
	if c.gaugeFn() != 9 {
		t.Fatalf("gaugeFn must read live state, got %v", c.gaugeFn())
	}
}

func TestClock(t *testing.T) {
	var m ManualClock
	if m.Now() != 0 {
		t.Fatalf("fresh ManualClock = %d, want 0", m.Now())
	}
	m.Advance(1500)
	if m.Now() != 1500 {
		t.Fatalf("advanced ManualClock = %d, want 1500", m.Now())
	}
	if Now(nil) != 0 || SinceSeconds(nil, 123) != 0 {
		t.Fatalf("nil Clock helpers must return 0")
	}
	if got := SinceSeconds(&m, 500); got != 1e-6 {
		t.Fatalf("SinceSeconds = %v, want 1e-6", got)
	}
	w := WallClock{}
	a := w.Now()
	b := w.Now()
	if b < a {
		t.Fatalf("WallClock went backwards: %d then %d", a, b)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestNilSleeperNeverSleeps(t *testing.T) {
	start := time.Now()
	Sleep(nil, time.Hour) // a real sleeper would block for the hour
	if time.Since(start) > time.Second {
		t.Fatal("a nil Sleeper must not sleep")
	}
}
