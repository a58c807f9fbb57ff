// Package obs is the repository's observability substrate: a
// stdlib-only metrics registry (atomic counters, gauges and fixed-
// bucket histograms, optionally labeled), a Prometheus-text and JSON
// expositor (expose.go), an NDJSON phase tracer (trace.go), an
// injected-clock abstraction (clock.go), a background HTTP server
// exposing /metrics, /metrics.json, /healthz and net/http/pprof
// (serve.go), and Open, the one place a CLI's -metrics-addr and
// -trace-out become sinks (sinks.go).
//
// The package exists to reconcile two contracts that pull in opposite
// directions:
//
//   - The ROADMAP's serving layer wants live telemetry — points/s,
//     law-cache hit rates, error-budget histograms — from the census,
//     law-cache, model and sweep layers.
//   - Those layers are //nrlint:deterministic: results must be a pure
//     function of (spec, seed) at any worker count, so they may never
//     read the wall clock (`time.Now` is lint-banned there) and no
//     computation may branch on a metric.
//
// The resolution is the observability contract (DESIGN.md §2):
// instrumentation is strictly WRITE-ONLY from the hot path's point of
// view. Deterministic code may increment counters, observe histograms
// and emit trace events, but never reads a metric back, and all
// timing flows through an injected Clock — the harness (a CLI, a
// test) decides whether that clock is the wall clock or nothing at
// all. Metrics-on runs are therefore bit-identical to metrics-off
// runs, which the sweep- and sim-level golden tests pin.
//
// Every mutating method in the package is nil-receiver-safe: a nil
// *Counter, *Gauge, *Histogram, *Tracer or vec child is a no-op, so
// instrumented layers carry optional metric handles without guarding
// every site. Constructing metrics through a nil *Registry yields
// functional but unregistered (never exported) instruments.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family.
type Kind uint8

// The metric kinds, mirroring the Prometheus exposition types.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// A Counter is a monotonically non-decreasing int64. The zero value
// is ready to use, registered or not; all methods are safe for
// concurrent use and a nil receiver is a no-op.
type Counter struct {
	v atomic.Int64

	mu     sync.Mutex
	shards []*Counter // see Shard
}

// cacheLine is the padding a shard keeps on each side of the words it
// writes, so no other allocation's writes land on their cache lines.
const cacheLine = 64

// Shard returns a new counter whose increments c's Value and
// exposition include. Concurrent writers that each own a shard (one
// per pool worker) write their own cache lines instead of moving c's
// between cores on every increment. A nil receiver returns nil.
func (c *Counter) Shard() *Counter {
	if c == nil {
		return nil
	}
	s := &new(struct {
		_ [cacheLine]byte
		c Counter
		_ [cacheLine]byte
	}).c
	c.mu.Lock()
	c.shards = append(c.shards, s)
	c.mu.Unlock()
	return s
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n; negative deltas are ignored (counters are monotone).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count, its shards' included (0 on a nil
// receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	v := c.v.Load()
	c.mu.Lock()
	shards := c.shards
	c.mu.Unlock()
	for _, s := range shards {
		v += s.Value()
	}
	return v
}

// A Gauge is an arbitrary float64 that can go up and down. The zero
// value reads 0 and is ready to use; a nil receiver is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds v (CAS loop; safe for concurrent use).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// A Histogram counts observations into fixed buckets chosen at
// registration (see LogBuckets). Observation is lock-free: one atomic
// bucket increment, one count increment and one CAS sum update. A nil
// receiver is a no-op.
type Histogram struct {
	// bounds are the strictly increasing upper bucket bounds; an
	// implicit +Inf bucket follows the last. Immutable after creation.
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; bucket i counts v ≤ bounds[i]
	count   atomic.Int64
	sumBits atomic.Uint64

	mu     sync.Mutex
	shards []*Histogram // see Shard
}

func newHistogram(bounds []float64) (*Histogram, error) {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			return nil, fmt.Errorf("obs: histogram bounds not strictly increasing at %d (%v after %v)", i, bounds[i], bounds[i-1])
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}, nil
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound ≥ v; NaN compares false everywhere and lands in the
	// +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Shard returns a new histogram with h's buckets whose observations
// h's Count, Sum and exposition include: the histogram counterpart of
// Counter.Shard. A nil receiver returns nil.
func (h *Histogram) Shard() *Histogram {
	if h == nil {
		return nil
	}
	const pad = cacheLine / 8 // buckets are 8-byte words
	n := len(h.buckets)
	s := &new(struct {
		_ [cacheLine]byte
		h Histogram
		_ [cacheLine]byte
	}).h
	s.bounds = h.bounds
	s.buckets = make([]atomic.Int64, n+2*pad)[pad : pad+n : pad+n]
	h.mu.Lock()
	h.shards = append(h.shards, s)
	h.mu.Unlock()
	return s
}

// shardList returns the shards h has handed out so far.
func (h *Histogram) shardList() []*Histogram {
	h.mu.Lock()
	shards := h.shards
	h.mu.Unlock()
	return shards
}

// Count returns the number of observations so far, its shards'
// included.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	for _, s := range h.shardList() {
		n += s.Count()
	}
	return n
}

// Sum returns the sum of observed values so far, its shards'
// included.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	sum := math.Float64frombits(h.sumBits.Load())
	for _, s := range h.shardList() {
		sum += s.Sum()
	}
	return sum
}

// snapshot returns cumulative bucket counts aligned with bounds plus
// the +Inf bucket, in le order, its shards' included.
func (h *Histogram) snapshot() (cum []int64, count int64, sum float64) {
	cum = make([]int64, len(h.buckets))
	h.addBuckets(cum)
	var running int64
	for i := range cum {
		running += cum[i]
		cum[i] = running
	}
	return cum, h.Count(), h.Sum()
}

// addBuckets adds h's and its shards' per-bucket counts into dst.
func (h *Histogram) addBuckets(dst []int64) {
	for i := range h.buckets {
		dst[i] += h.buckets[i].Load()
	}
	for _, s := range h.shardList() {
		s.addBuckets(dst)
	}
}

// LogBuckets returns n log-spaced histogram bounds starting at lo and
// multiplying by factor: lo, lo·f, lo·f², … — the fixed-bucket shape
// every histogram in the repo uses (durations, budget masses).
func LogBuckets(lo, factor float64, n int) []float64 {
	if !(lo > 0) || !(factor > 1) || n < 1 {
		return nil
	}
	out := make([]float64, n)
	v := lo
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// child is one labeled instance of a family: exactly one of the
// metric pointers is non-nil, matching the family kind.
type child struct {
	labelVals []string
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
	gaugeFn   func() float64
}

// family is one named metric with a label schema and its children.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histogram families only

	mu       sync.Mutex
	children map[string]*child
}

// childKey joins label values; \xff never appears in sane label
// values, so the join is injective in practice.
func childKey(vals []string) string { return strings.Join(vals, "\xff") }

// get returns the child for the given label values, creating it on
// first use. Label arity must match the family schema.
func (f *family) get(vals []string) (*child, error) {
	if len(vals) != len(f.labels) {
		return nil, fmt.Errorf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(vals))
	}
	key := childKey(vals)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c, nil
	}
	c := &child{labelVals: append([]string(nil), vals...)}
	switch f.kind {
	case KindCounter:
		c.counter = &Counter{}
	case KindGauge:
		c.gauge = &Gauge{}
	case KindHistogram:
		h, err := newHistogram(f.bounds)
		if err != nil {
			return nil, err
		}
		c.hist = h
	}
	f.children[key] = c
	return c, nil
}

// sortedChildren returns the children ordered by label values, for
// deterministic exposition.
func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*child, len(keys))
	for i, k := range keys {
		out[i] = f.children[k]
	}
	return out
}

// Registry holds metric families. The zero value is NOT usable; build
// one with NewRegistry. All constructor methods are get-or-create and
// idempotent: asking twice for the same (name, kind, label schema)
// returns the same instrument, so independent layers can register
// their bundles against one shared registry. A nil *Registry is
// accepted everywhere and yields functional, unregistered instruments
// — instrumented code does not care whether a harness is exporting.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// validName is the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// familyFor is the get-or-create core. A nil receiver returns a
// detached family (functional, never exported). Spec mismatches —
// same name re-registered with a different kind or label schema — are
// programmer errors and panic with the conflicting specs.
func (r *Registry) familyFor(name, help string, kind Kind, labels []string, bounds []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: metric %s has invalid label name %q", name, l))
		}
	}
	if r == nil {
		return &family{name: name, help: help, kind: kind,
			labels:   append([]string(nil), labels...),
			bounds:   append([]float64(nil), bounds...),
			children: map[string]*child{}}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s%v, was %s%v", name, kind, labels, f.kind, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %s re-registered with labels %v, was %v", name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		children: map[string]*child{}}
	r.fams[name] = f
	return f
}

// Counter returns the unlabeled counter with the given name,
// registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	c, err := r.familyFor(name, help, KindCounter, nil, nil).get(nil)
	if err != nil {
		panic(err) // unreachable: nil label values match a nil schema
	}
	return c.counter
}

// AttachCounter exports an externally owned counter (for example a
// LawCache's lifetime hit count) under the given name. The attached
// counter replaces any previously attached or created instance — one
// owner per name and registry.
func (r *Registry) AttachCounter(name, help string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	f := r.familyFor(name, help, KindCounter, nil, nil)
	ch, err := f.get(nil)
	if err != nil {
		panic(err)
	}
	f.mu.Lock()
	ch.counter = c
	f.mu.Unlock()
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	c, err := r.familyFor(name, help, KindGauge, nil, nil).get(nil)
	if err != nil {
		panic(err)
	}
	return c.gauge
}

// GaugeFunc registers a gauge whose value is read by calling fn at
// exposition time — the hook for exporting state that already lives
// elsewhere (cache entry counts, capacities) without a write path.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	f := r.familyFor(name, help, KindGauge, nil, nil)
	ch, err := f.get(nil)
	if err != nil {
		panic(err)
	}
	f.mu.Lock()
	ch.gaugeFn = fn
	f.mu.Unlock()
}

// Histogram returns the unlabeled histogram with the given name and
// bucket bounds (see LogBuckets). Bounds are fixed at first
// registration; later calls for the same name return the existing
// histogram.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	c, err := r.familyFor(name, help, KindHistogram, nil, bounds).get(nil)
	if err != nil {
		panic(err)
	}
	return c.hist
}

// CounterVec is a labeled counter family.
type CounterVec struct{ fam *family }

// CounterVec returns the labeled counter family with the given name
// and label schema.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.familyFor(name, help, KindCounter, labels, nil)}
}

// With returns the child counter for the given label values, creating
// it on first use. Hot paths should capture the child once rather
// than calling With per operation. A nil vec returns nil (a no-op
// counter).
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v == nil || v.fam == nil {
		return nil
	}
	c, err := v.fam.get(labelValues)
	if err != nil {
		panic(err)
	}
	return c.counter
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ fam *family }

// GaugeVec returns the labeled gauge family with the given name and
// label schema.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.familyFor(name, help, KindGauge, labels, nil)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	if v == nil || v.fam == nil {
		return nil
	}
	c, err := v.fam.get(labelValues)
	if err != nil {
		panic(err)
	}
	return c.gauge
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ fam *family }

// HistogramVec returns the labeled histogram family with the given
// name, bucket bounds and label schema.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{fam: r.familyFor(name, help, KindHistogram, labels, bounds)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if v == nil || v.fam == nil {
		return nil
	}
	c, err := v.fam.get(labelValues)
	if err != nil {
		panic(err)
	}
	return c.hist
}

// sortedFamilies snapshots the family list in name order for
// deterministic exposition.
func (r *Registry) sortedFamilies() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*family, len(names))
	for i, n := range names {
		out[i] = r.fams[n]
	}
	r.mu.Unlock()
	return out
}
