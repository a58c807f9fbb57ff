package census

import (
	"sync"

	"github.com/gossipkit/noisyrumor/internal/obs"
)

// Metrics is the census layer's instrument bundle, resolved once
// against a registry so hot paths touch pre-captured children only
// (no name lookups per phase). All writes honor the observability
// contract: the engine increments and observes but never reads a
// metric back, so metrics-on runs stay bit-identical to metrics-off
// runs. A nil *Metrics disables the bundle.
type Metrics struct {
	// phases / phaseSeconds index by stage-1 (slot 0 = Stage 1).
	phases        [2]*obs.Counter
	phaseSeconds  [2]*obs.Histogram
	truncMass     *obs.Histogram // census_trunc_budget: per-phase truncation leg
	quantMass     *obs.Histogram // census_quant_budget: per-phase quantization certificate
	messages      *obs.Counter
	exactFallback *obs.Counter

	mu      sync.Mutex
	workers []*Metrics // see Worker
}

// NewMetrics registers the census metric family (names documented in
// DESIGN.md §2) against reg and returns the resolved bundle. A nil
// registry yields detached but functional instruments.
func NewMetrics(reg *obs.Registry) *Metrics {
	phaseVec := reg.CounterVec("census_phases_total",
		"Census phases advanced, by protocol stage.", "stage")
	secVec := reg.HistogramVec("census_phase_seconds",
		"Wall-clock duration of one census phase (harness clock; 0 without a Clock).",
		obs.LogBuckets(1e-6, 4, 16), "stage")
	return &Metrics{
		phases:       [2]*obs.Counter{phaseVec.With("1"), phaseVec.With("2")},
		phaseSeconds: [2]*obs.Histogram{secVec.With("1"), secVec.With("2")},
		truncMass: reg.Histogram("census_trunc_budget",
			"Per-phase truncation leg of the error budget (n × accounted TV mass).",
			obs.LogBuckets(1e-15, 10, 14)),
		quantMass: reg.Histogram("census_quant_budget",
			"Per-phase Stage-2 quantization certificate min(1, ell*dTV*sens).",
			obs.LogBuckets(1e-15, 10, 14)),
		messages: reg.Counter("census_messages_total",
			"Messages pushed through census noise splits (sent multiset mass)."),
		exactFallback: reg.Counter("census_quant_exact_fallbacks_total",
			"Quantized Stage-2 phases that bypassed the law cache and evaluated exactly."),
	}
}

// Worker returns worker w's shard of the bundle: every instrument a
// shard of m's (obs.Counter.Shard), created on first use and returned
// to every later caller with the same w. A pool that gives each worker
// its own shard keeps concurrent engines from moving one cache line
// between cores on every phase; the registry's exposition sums the
// shards. A nil bundle returns nil.
func (m *Metrics) Worker(w int) *Metrics {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.workers) <= w {
		m.workers = append(m.workers, &Metrics{
			phases:        [2]*obs.Counter{m.phases[0].Shard(), m.phases[1].Shard()},
			phaseSeconds:  [2]*obs.Histogram{m.phaseSeconds[0].Shard(), m.phaseSeconds[1].Shard()},
			truncMass:     m.truncMass.Shard(),
			quantMass:     m.quantMass.Shard(),
			messages:      m.messages.Shard(),
			exactFallback: m.exactFallback.Shard(),
		})
	}
	return m.workers[w]
}

// SetObs attaches the observability sinks: a metric bundle, an NDJSON
// phase tracer and the injected clock that timestamps both. Any of the
// three may be nil; the engine's arithmetic is identical either way
// (the write-only contract). Reset preserves the attachment.
func (e *Engine) SetObs(m *Metrics, tracer *obs.Tracer, clock obs.Clock) {
	e.mets = m
	e.tracer = tracer
	e.clock = clock
}

// observePhase records one completed phase: counters, duration,
// per-phase budget deltas, and a trace event. Failed phases are not
// recorded (the run is aborting anyway).
func (e *Engine) observePhase(stage int, start int64, b0, q0 float64, err error) {
	if err != nil || (e.mets == nil && e.tracer == nil) {
		return
	}
	db := e.budget - b0
	dq := e.qbudget - q0
	if e.mets != nil {
		e.mets.phases[stage-1].Inc()
		e.mets.phaseSeconds[stage-1].Observe(obs.SinceSeconds(e.clock, start))
		e.mets.truncMass.Observe(db - dq)
		e.mets.quantMass.Observe(dq)
	}
	if e.tracer != nil {
		e.tracer.Event("census_phase",
			obs.F("stage", stage),
			obs.F("start_ns", start),
			obs.F("dur_ns", obs.Now(e.clock)-start),
			obs.F("trunc_mass", db-dq),
			obs.F("quant_mass", dq))
	}
}
