package main

// e2eMetric is one end-to-end metric: what a user of cmd/sweep sees.
// Bound is the share of the parent's median by which it may worsen
// before a change counts as a regression.
type e2eMetric struct {
	name, unit, better string
	bound              float64
}

// e2eMetrics is BENCHMARK.json's end_to_end list; a test keeps the two
// identical. The timings are child CPU seconds scaled to the host
// reference's speed, and carry the widest bound allowed, setup_s no
// less than any: on the shared two-vCPU reference host they still
// spread by up to 8.4% over ten runs, so a tighter bound would flag
// the host, not the code. See README.md.
var e2eMetrics = []e2eMetric{
	{"cpu_s", "s", "lower", 0.25},
	{"trials_per_cpu_s", "trials/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"error_budget", "probability", "lower", 0.10},
}

// layerMetric is one per-layer metric with the prediction written down
// before any measurement: which end-to-end metrics it should move, on
// which workloads, and where a change to it should move nothing.
type layerMetric struct {
	name, unit, better string
	moves              []string // end-to-end metrics
	on, flat           []string // workloads
}

var (
	allGrids = []string{"grid-k2", "grid-k35-exact", "grid-k35-quant"}
	k35s     = []string{"grid-k35-exact", "grid-k35-quant"}
	exacts   = []string{"grid-k2", "grid-k35-exact", "bisect-k3"}
	speed    = []string{"cpu_s", "trials_per_cpu_s"}
)

// layerMetrics is BENCHMARK.json's per_layer list, outermost layer
// last; a test keeps the two identical.
var layerMetrics = []layerMetric{
	{"census.law.eval_us.p50", "us", "lower", speed, []string{"grid-k35-exact", "bisect-k3"}, []string{"grid-k2"}},
	{"census.law.eval_us.tail", "us", "lower", speed, []string{"grid-k35-exact", "bisect-k3"}, []string{"grid-k2"}},
	{"census.law.evals", "count", "lower", nil, nil, nil},
	{"census.law.share", "fraction", "lower", speed, []string{"grid-k35-exact", "bisect-k3"}, []string{"grid-k2"}},
	{"census.law.self_s", "s", "lower", speed, []string{"grid-k35-exact", "bisect-k3"}, []string{"grid-k2"}},
	{"census.lawcache.hit_rate_cold", "fraction", "higher", []string{"cpu_s"}, []string{"grid-k35-quant"}, exacts},
	{"census.lawcache.hit_rate_warm", "fraction", "higher", []string{"cpu_s"}, []string{"grid-k35-quant"}, exacts},
	{"census.lawcache.misses", "count", "lower", []string{"cpu_s"}, []string{"grid-k35-quant"}, exacts},
	{"census.lawcache.dropped_stores", "count", "lower", []string{"cpu_s"}, []string{"grid-k35-quant"}, exacts},
	{"census.lawcache.miss_phase_us.p50", "us", "lower", []string{"cpu_s"}, []string{"grid-k35-quant"}, exacts},
	{"census.lawcache.hit_phase_us.p50", "us", "lower", []string{"cpu_s"}, []string{"grid-k35-quant"}, exacts},
	{"census.stage2.phase_us.p50", "us", "lower", []string{"trials_per_cpu_s"}, []string{"grid-k35-exact", "grid-k2"}, nil},
	{"census.stage2.phase_us.tail", "us", "lower", []string{"trials_per_cpu_s"}, []string{"grid-k35-exact", "grid-k2"}, nil},
	{"census.stage2.phases", "count", "lower", nil, nil, nil},
	{"census.stage1.phase_us.p50", "us", "lower", []string{"trials_per_cpu_s"}, []string{"grid-k2"}, k35s},
	{"census.stage1.phases", "count", "lower", nil, nil, nil},
	{"census.self_s", "s", "lower", []string{"trials_per_cpu_s"}, []string{"grid-k2"}, nil},
	{"dist.multinomial64_ns", "ns", "lower", []string{"trials_per_cpu_s"}, []string{"grid-k2"}, []string{"grid-k35-exact"}},
	{"dist.binomial64_ns", "ns", "lower", []string{"trials_per_cpu_s"}, []string{"grid-k2"}, []string{"grid-k35-exact"}},
	{"noise.split64_ns", "ns", "lower", []string{"trials_per_cpu_s"}, []string{"grid-k2"}, []string{"grid-k35-exact"}},
	{"dist.self_s", "s", "lower", []string{"trials_per_cpu_s"}, []string{"grid-k2"}, []string{"grid-k35-exact"}},
	{"core.trial_ms.p50", "ms", "lower", []string{"trials_per_cpu_s"}, []string{"grid-k2"}, []string{"grid-k35-exact"}},
	{"core.trial_ms.tail", "ms", "lower", []string{"trials_per_cpu_s"}, []string{"grid-k2"}, []string{"grid-k35-exact"}},
	{"core.self_s", "s", "lower", []string{"trials_per_cpu_s"}, []string{"grid-k2"}, []string{"grid-k35-exact"}},
	{"sweep.run_s", "s", "lower", speed, allGrids, nil},
	{"sweep.busy_frac", "fraction", "higher", speed, []string{"grid-k2", "bisect-k3"}, []string{"grid-k35-exact"}},
	{"sweep.self_s", "s", "lower", speed, []string{"grid-k2", "bisect-k3"}, []string{"grid-k35-exact"}},
	{"sweep.points", "count", "lower", nil, nil, nil},
	{"sweep.trials", "count", "lower", nil, nil, nil},
	{"sweep.checkpoint.put_us", "us", "lower", []string{"trials_per_cpu_s"}, []string{"grid-k2"}, k35s},
	{"sweep.checkpoint.resume_ms", "ms", "lower", []string{"setup_s"}, []string{"grid-k2"}, k35s},
	{"cmd_sweep.residual_s", "s", "lower", []string{"setup_s", "cpu_s"}, []string{"grid-k2"}, nil},
	{"cmd_sweep.cpu_s", "s", "lower", []string{"cpu_s"}, allGrids, nil},
	{"obs.overhead_pct", "%", "lower", nil, nil, nil},
	{"obs.overhead_pct.lo", "%", "lower", nil, nil, nil},
	{"obs.overhead_pct.hi", "%", "lower", nil, nil, nil},
	{"bench.unattributed_frac", "fraction", "lower", nil, nil, nil},
	{"bench.unattributed_frac.spread", "fraction", "lower", nil, nil, nil},
	{"bench.host_ref_ms", "ms", "lower", nil, nil, nil},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
