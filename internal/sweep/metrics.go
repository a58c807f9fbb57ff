package sweep

import (
	"fmt"

	"github.com/gossipkit/noisyrumor/internal/census"
	"github.com/gossipkit/noisyrumor/internal/model"
	"github.com/gossipkit/noisyrumor/internal/obs"
)

// Metrics is the sweep layer's instrument bundle. Like every bundle in
// the repo it is write-only from the hot path (DESIGN.md §2): workers
// increment and observe, nothing in the sweep ever reads a metric
// back, so instrumented sweeps are bit-identical to bare ones at any
// worker count (pinned by TestGridObsBitIdentical).
type Metrics struct {
	points       *obs.Counter    // sweep_points_total
	trials       *obs.Counter    // sweep_trials_total
	earlyStops   *obs.Counter    // sweep_earlystops_total
	workerTrials *obs.CounterVec // sweep_worker_trials_total{worker}
	workerBusy   *obs.GaugeVec   // sweep_worker_busy_seconds{worker}
	ckWrite      *obs.Histogram  // sweep_checkpoint_write_seconds
	pointsPerSec *obs.Gauge      // sweep_points_per_sec
	errMass      *obs.Gauge      // sweep_error_budget
	quantMass    *obs.Gauge      // sweep_quant_budget
	retries      *obs.Counter    // sweep_retries_total
	quarantined  *obs.Counter    // sweep_points_quarantined
	backoff      *obs.Histogram  // resilience_backoff_seconds
	salvagedPts  *obs.Counter    // checkpoint_salvaged_points
}

// NewMetrics registers the sweep metric family against reg. A nil
// registry yields detached but functional instruments.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		points: reg.Counter("sweep_points_total",
			"Sweep points evaluated (checkpoint-resumed points excluded)."),
		trials: reg.Counter("sweep_trials_total",
			"Protocol trials executed across all sweep points."),
		earlyStops: reg.Counter("sweep_earlystops_total",
			"Adaptive point evaluations resolved early by the Wilson interval."),
		workerTrials: reg.CounterVec("sweep_worker_trials_total",
			"Trials executed per worker slot (scheduling telemetry; the split never affects results).",
			"worker"),
		workerBusy: reg.GaugeVec("sweep_worker_busy_seconds",
			"Cumulative seconds each worker slot spent inside trials (harness clock).",
			"worker"),
		ckWrite: reg.Histogram("sweep_checkpoint_write_seconds",
			"Checkpoint write+rename latency.", obs.LogBuckets(1e-5, 4, 12)),
		pointsPerSec: reg.Gauge("sweep_points_per_sec",
			"Instantaneous throughput: 1 / duration of the most recently evaluated point."),
		errMass: reg.Gauge("sweep_error_budget",
			"Accumulated Lemma-3 approximation budget over evaluated points."),
		quantMass: reg.Gauge("sweep_quant_budget",
			"Quantization leg of the accumulated budget."),
		retries: reg.Counter("sweep_retries_total",
			"Retry attempts after transient checkpoint I/O failures."),
		quarantined: reg.Counter("sweep_points_quarantined",
			"Points quarantined because a trial panicked."),
		backoff: reg.Histogram("resilience_backoff_seconds",
			"Backoff delays scheduled between retry attempts.", obs.LogBuckets(1e-4, 4, 10)),
		salvagedPts: reg.Counter("checkpoint_salvaged_points",
			"Damaged checkpoint journal lines dropped (and recomputed) on open."),
	}
}

// Instrumentation bundles every observability sink a sweep threads
// downward: the sweep's own metrics, the census and model bundles for
// the engines its workers drive, the NDJSON tracer, and the injected
// clock that timestamps all of it. The zero value disables everything
// — Runner{} behaves exactly as before this layer existed.
type Instrumentation struct {
	Metrics *Metrics
	Census  *census.Metrics
	Model   *model.Metrics
	Tracer  *obs.Tracer
	Clock   obs.Clock
}

// NewInstrumentation registers all three layer bundles against reg and
// wires the tracer and clock through: the one-call setup a harness
// needs before handing Runner.Obs out. Any argument may be nil.
func NewInstrumentation(reg *obs.Registry, tracer *obs.Tracer, clock obs.Clock) Instrumentation {
	return Instrumentation{
		Metrics: NewMetrics(reg),
		Census:  census.NewMetrics(reg),
		Model:   model.NewMetrics(reg),
		Tracer:  tracer,
		Clock:   clock,
	}
}

// observePoint records one completed point evaluation. fresh is false
// for checkpoint-resumed points, which cost no work and are not
// counted.
func (r Runner) observePoint(pr PointResult, startNS int64, fresh bool) {
	if !fresh {
		return
	}
	if pr.Error != nil {
		if m := r.Obs.Metrics; m != nil {
			m.quarantined.Inc()
		}
		if tr := r.Obs.Tracer; tr != nil {
			tr.Event("point_quarantined",
				obs.F("index", pr.Point.Index),
				obs.F("trial", pr.Error.Trial),
				obs.F("permanent", pr.Error.Permanent))
		}
		return
	}
	if m := r.Obs.Metrics; m != nil {
		m.points.Inc()
		m.errMass.Add(pr.ErrorBudget)
		m.quantMass.Add(pr.QuantBudget)
		if sec := obs.SinceSeconds(r.Obs.Clock, startNS); sec > 0 {
			m.pointsPerSec.Set(1 / sec)
		}
	}
	if tr := r.Obs.Tracer; tr != nil {
		tr.Event("point",
			obs.F("index", pr.Point.Index),
			obs.F("trials", pr.Trials),
			obs.F("successes", pr.Successes),
			obs.F("dur_ns", obs.Now(r.Obs.Clock)-startNS))
	}
}

// observeCheckpointOpen records salvage degradation after a journal
// open: how many damaged lines were dropped for recompute.
func (r Runner) observeCheckpointOpen(ck *checkpoint) {
	n := ck.salvagedCount()
	if n == 0 {
		return
	}
	if m := r.Obs.Metrics; m != nil {
		m.salvagedPts.Add(int64(n))
	}
	if tr := r.Obs.Tracer; tr != nil {
		tr.Event("checkpoint_salvaged", obs.F("dropped", n))
	}
}

// putCheckpoint is ck.put with transient-failure retries and
// write-latency accounting; a nil checkpoint stays a silent no-op
// (nothing is recorded for it).
func (r Runner) putCheckpoint(ck *checkpoint, key int, pr PointResult) error {
	if ck == nil {
		return nil
	}
	t0 := obs.Now(r.Obs.Clock)
	if err := r.retry(putJitterSalt+uint64(key), func() error { return ck.put(key, pr) }); err != nil {
		return fmt.Errorf("point %d could not be persisted: %w", key, err)
	}
	if m := r.Obs.Metrics; m != nil {
		m.ckWrite.Observe(obs.SinceSeconds(r.Obs.Clock, t0))
	}
	if tr := r.Obs.Tracer; tr != nil {
		tr.Event("checkpoint_write",
			obs.F("key", key),
			obs.F("dur_ns", obs.Now(r.Obs.Clock)-t0))
	}
	return nil
}
