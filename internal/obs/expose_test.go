package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func buildTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("b_total", "counts b things").Add(3)
	r.Gauge("a_gauge", "").Set(1.5)
	h := r.Histogram("c_hist", "a histogram", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(500)
	v := r.CounterVec("d_total", "", "engine")
	v.With("push").Add(2)
	v.With("pull").Inc()
	return r
}

func TestWritePrometheus(t *testing.T) {
	var sb strings.Builder
	if err := buildTestRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# TYPE a_gauge gauge
a_gauge 1.5
# HELP b_total counts b things
# TYPE b_total counter
b_total 3
# HELP c_hist a histogram
# TYPE c_hist histogram
c_hist_bucket{le="1"} 1
c_hist_bucket{le="10"} 2
c_hist_bucket{le="+Inf"} 3
c_hist_sum 505.5
c_hist_count 3
# TYPE d_total counter
d_total{engine="pull"} 1
d_total{engine="push"} 2
`
	if got != want {
		t.Fatalf("prometheus text mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	r := buildTestRegistry()
	var a, b strings.Builder
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("two scrapes of an idle registry differ")
	}
}

func TestWriteJSON(t *testing.T) {
	var sb strings.Builder
	if err := buildTestRegistry().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []JSONMetric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("metrics.json does not parse: %v", err)
	}
	if len(doc.Metrics) != 4 {
		t.Fatalf("want 4 families, got %d", len(doc.Metrics))
	}
	byName := map[string]JSONMetric{}
	for _, m := range doc.Metrics {
		byName[m.Name] = m
	}
	c := byName["b_total"]
	if c.Kind != "counter" || len(c.Values) != 1 || c.Values[0].Value == nil || *c.Values[0].Value != 3 {
		t.Fatalf("b_total wrong: %+v", c)
	}
	h := byName["c_hist"]
	if h.Kind != "histogram" || len(h.Values) != 1 {
		t.Fatalf("c_hist wrong shape: %+v", h)
	}
	hv := h.Values[0]
	if hv.Count == nil || *hv.Count != 3 || hv.Sum == nil || *hv.Sum != 505.5 {
		t.Fatalf("c_hist count/sum wrong: %+v", hv)
	}
	if len(hv.Buckets) != 2 || hv.Buckets[0].Count != 1 || hv.Buckets[1].Count != 2 {
		t.Fatalf("c_hist buckets wrong: %+v", hv.Buckets)
	}
	d := byName["d_total"]
	if len(d.Values) != 2 || d.Values[0].Labels["engine"] != "pull" {
		t.Fatalf("d_total labels wrong: %+v", d)
	}
}

func TestGaugeFuncReadAtScrape(t *testing.T) {
	r := NewRegistry()
	n := 1.0
	r.GaugeFunc("fn_gauge", "", func() float64 { return n })
	var a strings.Builder
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.String(), "fn_gauge 1\n") {
		t.Fatalf("first scrape: %q", a.String())
	}
	n = 2
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "fn_gauge 2\n") {
		t.Fatalf("second scrape must see updated state: %q", b.String())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "", "path").With(`a"b\c` + "\n").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{path="a\"b\\c\n"} 1` + "\n"
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("escaping wrong:\n got %q\nwant %q", sb.String(), want)
	}
}

func TestNilRegistryExposition(t *testing.T) {
	var r *Registry
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil registry wrote %q", sb.String())
	}
}

// TestShardsExposeAsOne spreads buildTestRegistry's writes over
// shards of its instruments: the parent's readers and both
// expositions must report exactly what the unsharded registry does.
func TestShardsExposeAsOne(t *testing.T) {
	r := NewRegistry()
	b := r.Counter("b_total", "counts b things")
	b.Add(1)
	b.Shard().Add(2)
	r.Gauge("a_gauge", "").Set(1.5)
	h := r.Histogram("c_hist", "a histogram", []float64{1, 10})
	h.Observe(0.5)
	h.Shard().Observe(5)
	h.Shard().Shard().Observe(500) // a shard's shard still counts
	v := r.CounterVec("d_total", "", "engine")
	v.With("push").Shard().Add(2)
	v.With("pull").Shard().Inc()

	if got := b.Value(); got != 3 {
		t.Fatalf("sharded counter Value = %d, want 3", got)
	}
	if got, sum := h.Count(), h.Sum(); got != 3 || sum != 505.5 {
		t.Fatalf("sharded histogram Count, Sum = %d, %v, want 3, 505.5", got, sum)
	}
	for name, write := range map[string]func(*Registry, *strings.Builder) error{
		"prometheus": func(r *Registry, sb *strings.Builder) error { return r.WritePrometheus(sb) },
		"json":       func(r *Registry, sb *strings.Builder) error { return r.WriteJSON(sb) },
	} {
		var got, want strings.Builder
		if err := write(r, &got); err != nil {
			t.Fatal(err)
		}
		if err := write(buildTestRegistry(), &want); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s exposition of the sharded registry differs:\n--- got ---\n%s--- want ---\n%s", name, got.String(), want.String())
		}
	}
	var nilCounter *Counter
	var nilHist *Histogram
	if nilCounter.Shard() != nil || nilHist.Shard() != nil {
		t.Fatal("a nil instrument's shard must be nil")
	}
}
