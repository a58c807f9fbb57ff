// Command sweep drives the phase-diagram sweep subsystem
// (internal/sweep) from the command line: dense parameter grids,
// critical-noise bisection and T(n) scaling fits, all on the
// n-independent census engine by default, all bit-reproducible for a
// fixed seed at any worker count, and all resumable from a JSON
// checkpoint.
//
// Examples:
//
//	sweep grid -matrix uniform,cycle -k 3 -eps 0.05,0.1,0.2,0.3 \
//	    -delta 0.05,0.15,0.3 -n 1e5 -proto-eps 0.2 -trials 100
//	sweep bisect -matrix binary -k 2 -n 1e5 -delta 0.02 \
//	    -proto-eps 0.4 -lo 0.1 -hi 0.3 -tol 0.005 -trials 400
//	sweep scaling -matrix uniform -k 3 -eps 0.3 -decades 3-12 -trials 12
//	sweep grid ... -checkpoint sweep.ck.json   # interrupt and re-run to resume
//	sweep bisect ... -law-quant 1e-3           # Stage-2 law cache: each phase's
//	    # law-level certificate ℓ·d_TV·sens added to every budget (reported
//	    # separately as the quant leg). Measured only 1.2× faster than exact
//	    # on the k = 3, 5 benchmark grid, and at k = 8, n = 10⁹ it misses
//	    # consensus the exact law reaches (DESIGN.md §2, known defect)
//	sweep grid ... -shard 2/4 -checkpoint shard2.json  # one slice of four hosts
//	sweep merge -out merged.json shard*.json   # recombine shard checkpoints into
//	    # the byte-identical single-host journal (resumable by one host)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/gossipkit/noisyrumor/internal/census"
	"github.com/gossipkit/noisyrumor/internal/core"
	"github.com/gossipkit/noisyrumor/internal/obs"
	"github.com/gossipkit/noisyrumor/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: sweep <grid|bisect|scaling> [flags] (-h for the mode's flags)")
	}
	mode, rest := args[0], args[1:]
	switch mode {
	case "grid":
		return runGrid(rest, out)
	case "bisect":
		return runBisect(rest, out)
	case "scaling":
		return runScaling(rest, out)
	case "merge":
		return runMerge(rest, out)
	default:
		return fmt.Errorf("unknown mode %q (have grid, bisect, scaling, merge)", mode)
	}
}

// commonFlags registers the flags every mode shares.
type commonFlags struct {
	fs            *flag.FlagSet
	seed          *uint64
	workers       *int
	checkpoint    *string
	jsonOut       *bool
	engine        *string
	lawQuant      *float64
	censusTol     *float64
	metricsAddr   *string
	traceOut      *string
	metricsLinger *time.Duration
	shard         *string
}

func registerCommon(fs *flag.FlagSet) commonFlags {
	return commonFlags{
		fs:         fs,
		seed:       fs.Uint64("seed", 1, "random seed (results are a pure function of spec+seed)"),
		workers:    fs.Int("workers", 0, "trial parallelism (0 = GOMAXPROCS; any value is bit-identical)"),
		checkpoint: fs.String("checkpoint", "", "JSON checkpoint path; an existing compatible file resumes the sweep"),
		jsonOut:    fs.Bool("json", false, "emit the full result as JSON instead of tables"),
		engine:     fs.String("engine", "census", "trial engine: census (n-independent) or O | B | P (per-node cross-checks)"),
		lawQuant: fs.Float64("law-quant", 0,
			"census Stage-2 law quantization step η: round the pool distribution onto the η-lattice and memoize the majority law, charging the law-level certificate ℓ·d_TV·sens per phase into the reported budget (0 = exact; try 1e-3)"),
		censusTol: fs.Float64("census-tol", 0,
			"census Stage-2 truncation tolerance override (0 = the engine default 1e-13)"),
		metricsAddr: fs.String("metrics-addr", "",
			"serve GET /metrics (Prometheus text), /metrics.json, /healthz and /debug/pprof on this host:port during the run (port 0 picks a free port; the bound address is printed). Metrics are write-only telemetry: results are bit-identical with or without it"),
		traceOut: fs.String("trace-out", "",
			"write NDJSON phase-trace events (census phases, law-cache lookups, trials, points, checkpoint writes) to this file"),
		metricsLinger: fs.Duration("metrics-linger", 0,
			"with -metrics-addr: keep the listener up this long after the sweep finishes, for scraping a completed run"),
		shard: fs.String("shard", "",
			"run only this index-residue slice of the sweep, as index/of (e.g. 2/4); requires -checkpoint, and `sweep merge` recombines the shard checkpoints into the byte-identical single-host journal"),
	}
}

// validate rejects contradictory flag combinations instead of silently
// ignoring the losing flag: the census-only knobs have no effect on
// the per-node cross-check engines, -metrics-linger keeps a listener
// only -metrics-addr starts, and a -shard run's slice survives only in
// its checkpoint. Mode-specific flags are pure value parameters.
func (c commonFlags) validate() error {
	set := map[string]bool{}
	c.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := core.CheckEngineFlags(set, engineName(*c.engine) == "", false, ""); err != nil {
		return err
	}
	if set["metrics-linger"] && !set["metrics-addr"] {
		return errors.New("-metrics-linger keeps the metrics listener alive after the run, so it needs -metrics-addr to start one; add -metrics-addr or drop -metrics-linger")
	}
	if set["shard"] && !set["checkpoint"] {
		return errors.New("-shard runs one slice of the sweep, whose output exists only as a per-shard checkpoint for `sweep merge`; without -checkpoint the slice would be computed and thrown away; add -checkpoint shard<i>.json or drop -shard")
	}
	return nil
}

// runner builds the sweep runner, sharing one Stage-2 law cache
// across all workers and points when quantization is on so the CLI
// can report cache statistics after the run. Checkpoint I/O retries
// get a real sleeper — the CLI is a harness, so backoff may block —
// while jitter stays seeded, so a retried run's results are unchanged.
// It also opens the sinks -metrics-addr and -trace-out ask for (nil
// without either flag, leaving the runner uninstrumented); the caller
// validates its spec first, so a rejected spec never truncates a trace
// file, and closes the sinks with closeSinks after the run.
func (c commonFlags) runner(out io.Writer) (sweep.Runner, *census.LawCache, *obs.Sinks, error) {
	var cache *census.LawCache
	if *c.lawQuant > 0 {
		cache = census.NewLawCache()
	}
	r := sweep.Runner{Seed: *c.seed, Workers: *c.workers, Checkpoint: *c.checkpoint, Cache: cache, Sleeper: obs.WallSleeper{}}
	if *c.shard != "" {
		sh, err := sweep.ParseShard(*c.shard)
		if err != nil {
			return sweep.Runner{}, nil, nil, fmt.Errorf("-shard: %w", err)
		}
		r.Shard = sh
	}
	sinks, err := obs.Open(*c.metricsAddr, *c.traceOut, *c.metricsLinger, out)
	if err != nil {
		return sweep.Runner{}, nil, nil, err
	}
	if sinks != nil {
		r.Obs = sweep.NewInstrumentation(sinks.Registry, sinks.Tracer, obs.WallClock{})
		cache.Register(sinks.Registry)
	}
	return r, cache, sinks, nil
}

// closeSinks closes the run's sinks once its output is written; a
// trace the run failed to write fails the run.
func closeSinks(s *obs.Sinks, err *error) {
	if cerr := s.Close(); *err == nil {
		*err = cerr
	}
}

// printResilienceSummary reports degradation the run recovered from;
// silent recovery would hide real infrastructure trouble.
func printResilienceSummary(out io.Writer, salvaged int, quarantined []int) {
	if salvaged > 0 {
		fmt.Fprintf(out, "checkpoint: salvaged journal dropped %d damaged point(s), recomputed\n", salvaged)
	}
	if len(quarantined) > 0 {
		fmt.Fprintf(out, "quarantined points %v: a trial panicked (the checkpoint records which), and this build replays the panic on every run: fix the bug, then resume with the same -checkpoint to recompute them\n", quarantined)
	}
}

// runMerge implements `sweep merge -out merged.json shard*.json`:
// validate that the shard checkpoints belong to one sweep and
// recombine them into the single-host journal (byte-identical to an
// unsharded run when complete).
func runMerge(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweep merge", flag.ContinueOnError)
	var (
		outPath = fs.String("out", "", "path for the merged checkpoint (required)")
		partial = fs.Bool("partial", false,
			"write the union even when shards or points are missing or quarantined; the merged journal resumes on a single host, which recomputes the gaps")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" {
		return fmt.Errorf("merge needs -out")
	}
	shards := fs.Args()
	if len(shards) == 0 {
		return fmt.Errorf("merge needs at least one shard checkpoint file")
	}
	rep, err := sweep.Merge(*outPath, *partial, shards...)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "merged %d shard(s) of %d (%s): %d/%d points -> %s\n",
		len(rep.Shards), rep.Of, rep.Mode, rep.Points, rep.Expected, *outPath)
	if rep.Salvaged > 0 {
		fmt.Fprintf(out, "salvage dropped %d damaged point(s); a single-host resume recomputes them\n", rep.Salvaged)
	}
	if len(rep.MissingShards) > 0 {
		fmt.Fprintf(out, "missing shards: %v\n", rep.MissingShards)
	}
	if len(rep.Missing) > 0 {
		fmt.Fprintf(out, "missing points: %v\n", rep.Missing)
	}
	if len(rep.Quarantined) > 0 {
		fmt.Fprintf(out, "quarantined points: %v\n", rep.Quarantined)
	}
	if !rep.Complete() {
		fmt.Fprintf(out, "resume the merged journal on one host to fill the gaps: sweep <mode> ... -checkpoint %s\n", *outPath)
	}
	return nil
}

// printCacheStats reports the shared law cache's lifetime accounting —
// including stores dropped at the entry cap, which would otherwise
// masquerade as a low hit rate.
func printCacheStats(out io.Writer, cache *census.LawCache) {
	if cache == nil {
		return
	}
	h, m := cache.Stats()
	fmt.Fprintf(out, "law cache: %d hits, %d misses (hit rate %.1f%%), %d entries, %d dropped stores\n",
		h, m, 100*cache.HitRate(), cache.Len(), cache.DroppedStores())
}

func runGrid(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("sweep grid", flag.ContinueOnError)
	var (
		matrix   = fs.String("matrix", "uniform", "comma-separated matrix families (uniform | binary | identity | cycle | reset)")
		ks       = fs.String("k", "3", "comma-separated opinion counts")
		eps      = fs.String("eps", "0.1,0.2,0.3", "comma-separated channel ε values")
		deltas   = fs.String("delta", "0.1", "comma-separated initial plurality biases δ (0 = rumor spreading)")
		ns       = fs.String("n", "1e5", "comma-separated population sizes (scientific notation ok)")
		cs       = fs.String("c", "", "comma-separated Stage-2 constants c (sets ℓ=⌈c/ε²⌉; empty = default)")
		protoEps = fs.Float64("proto-eps", 0, "pin the protocol's assumed ε across the grid (0 = per-point channel ε)")
		trials   = fs.Int("trials", 50, "trials per grid point")
	)
	common := registerCommon(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := common.validate(); err != nil {
		return err
	}
	g := sweep.Grid{
		Matrices:  splitStrings(*matrix),
		Trials:    *trials,
		ProtoEps:  *protoEps,
		Engine:    engineName(*common.engine),
		LawQuant:  *common.lawQuant,
		CensusTol: *common.censusTol,
	}
	if g.Ks, err = parseInts(*ks); err != nil {
		return fmt.Errorf("-k: %w", err)
	}
	if g.ChannelEps, err = parseFloats(*eps); err != nil {
		return fmt.Errorf("-eps: %w", err)
	}
	if g.Deltas, err = parseFloats(*deltas); err != nil {
		return fmt.Errorf("-delta: %w", err)
	}
	if g.Ns, err = parseInt64s(*ns); err != nil {
		return fmt.Errorf("-n: %w", err)
	}
	if *cs != "" {
		if g.Cs, err = parseFloats(*cs); err != nil {
			return fmt.Errorf("-c: %w", err)
		}
	}
	if err := g.Validate(); err != nil {
		return err
	}
	r, cache, sinks, err := common.runner(out)
	if err != nil {
		return err
	}
	defer closeSinks(sinks, &err)
	res, err := r.RunGrid(g)
	if err != nil {
		return err
	}
	if *common.jsonOut {
		return emitJSON(out, res)
	}
	shardNote := ""
	if res.Shard != nil {
		shardNote = fmt.Sprintf(" (shard %s)", res.Shard)
	}
	fmt.Fprintf(out, "grid: %d points × %d trials, seed %d%s (total budget %.2e, quant leg %.2e)\n\n",
		len(res.Points), g.Trials, *common.seed, shardNote, res.ErrorBudget, res.QuantBudget)
	fmt.Fprintf(out, "%-8s %-3s %-9s %-6s %-10s %-8s %-9s %-16s %-10s %s\n",
		"matrix", "k", "eps", "delta", "n", "success", "trials", "wilson95", "rounds", "budget")
	for _, p := range res.Points {
		fmt.Fprintf(out, "%-8s %-3d %-9.4g %-6.3g %-10d %-8.3f %-9d [%.3f, %.3f]   %-10.1f %.2e\n",
			p.Point.Matrix, p.Point.K, p.Point.ChannelEps, p.Point.Delta, p.Point.N,
			p.SuccessRate, p.Trials, p.WilsonLo, p.WilsonHi, p.MeanRounds, p.ErrorBudget)
	}
	fmt.Fprintln(out)
	printResilienceSummary(out, res.Salvaged, res.Quarantined)
	printCacheStats(out, cache)
	return nil
}

func runBisect(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("sweep bisect", flag.ContinueOnError)
	var (
		matrix   = fs.String("matrix", "binary", "matrix family")
		k        = fs.Int("k", 2, "number of opinions")
		n        = fs.String("n", "1e5", "population size")
		delta    = fs.Float64("delta", 0.02, "initial plurality bias δ")
		protoEps = fs.Float64("proto-eps", 0.4, "the protocol's assumed ε (fixes the schedule)")
		c        = fs.Float64("c", 0, "Stage-2 constant c override (0 = default)")
		lo       = fs.Float64("lo", 0.1, "bracket low: channel ε with success < 1/2")
		hi       = fs.Float64("hi", 0.3, "bracket high: channel ε with success > 1/2")
		tol      = fs.Float64("tol", 0.005, "bracket width at which the search stops")
		trials   = fs.Int("trials", 400, "per-evaluation trial budget (Wilson-stopped)")
		batch    = fs.Int("batch", 0, "Wilson early-stopping batch size (0 = trials/8, min 8)")
		maxEvals = fs.Int("max-evals", 0, "evaluation cap (0 = 40)")
	)
	common := registerCommon(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := common.validate(); err != nil {
		return err
	}
	nv, err := parseInt64s(*n)
	if err != nil || len(nv) != 1 {
		return fmt.Errorf("-n: want one population size, got %q", *n)
	}
	b := sweep.Bisect{
		Matrix: *matrix, K: *k, N: nv[0], Delta: *delta, ProtoEps: *protoEps, C: *c,
		Lo: *lo, Hi: *hi, Tol: *tol, Trials: *trials, Batch: *batch, MaxEvals: *maxEvals,
		Engine: engineName(*common.engine), LawQuant: *common.lawQuant, CensusTol: *common.censusTol,
	}
	if err := b.Validate(); err != nil {
		return err
	}
	r, cache, sinks, err := common.runner(out)
	if err != nil {
		return err
	}
	defer closeSinks(sinks, &err)
	res, err := r.RunBisect(b)
	if err != nil {
		return err
	}
	if *common.jsonOut {
		return emitJSON(out, res)
	}
	fmt.Fprintf(out, "bisect: %s k=%d n=%d δ=%v, protocol ε=%v, seed %d\n\n",
		b.Matrix, b.K, b.N, b.Delta, b.ProtoEps, *common.seed)
	fmt.Fprintf(out, "%-5s %-10s %-8s %-16s %-7s %s\n", "eval", "eps", "success", "wilson95", "trials", "budget")
	for i, ev := range res.Evals {
		fmt.Fprintf(out, "%-5d %-10.5f %-8.3f [%.3f, %.3f]   %-7d %.2e\n",
			i, ev.Eps, ev.Result.SuccessRate, ev.Result.WilsonLo, ev.Result.WilsonHi,
			ev.Result.Trials, ev.Result.ErrorBudget)
	}
	fmt.Fprintf(out, "\ncritical ε* = %.5f (bracket [%.5f, %.5f], band [%.5f, %.5f], budget %.2e, quant leg %.2e)\n",
		res.Critical, res.Lo, res.Hi, res.BandLo, res.BandHi, res.ErrorBudget, res.QuantBudget)
	printResilienceSummary(out, res.Salvaged, nil)
	printCacheStats(out, cache)
	if lpb, err := sweep.LPBoundary(b.Matrix, b.K, b.ProtoEps, b.Delta, b.Lo, b.Hi); err == nil {
		fmt.Fprintf(out, "LP majority-preservation boundary: %.5f — %s the critical band\n",
			lpb, map[bool]string{true: "inside", false: "OUTSIDE"}[res.Contains(lpb)])
	} else {
		fmt.Fprintf(out, "LP majority-preservation boundary: not bracketed by [%v, %v] (%v)\n", b.Lo, b.Hi, err)
	}
	return nil
}

func runScaling(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("sweep scaling", flag.ContinueOnError)
	var (
		matrix   = fs.String("matrix", "uniform", "matrix family")
		k        = fs.Int("k", 3, "number of opinions")
		eps      = fs.Float64("eps", 0.3, "channel ε")
		protoEps = fs.Float64("proto-eps", 0, "the protocol's assumed ε (0 = channel ε)")
		delta    = fs.Float64("delta", 0, "initial plurality bias δ (0 = rumor spreading)")
		decades  = fs.String("decades", "3-9", "population decade range lo-hi: n = 10^lo … 10^hi")
		ns       = fs.String("n", "", "explicit comma-separated population sizes (overrides -decades)")
		trials   = fs.Int("trials", 12, "trials per population size")
	)
	common := registerCommon(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := common.validate(); err != nil {
		return err
	}
	s := sweep.Scaling{
		Matrix: *matrix, K: *k, ChannelEps: *eps, ProtoEps: *protoEps,
		Delta: *delta, Trials: *trials, Engine: engineName(*common.engine),
		LawQuant: *common.lawQuant, CensusTol: *common.censusTol,
	}
	if *ns != "" {
		if s.Ns, err = parseInt64s(*ns); err != nil {
			return fmt.Errorf("-n: %w", err)
		}
	} else {
		lo, hi, err := parseDecades(*decades)
		if err != nil {
			return fmt.Errorf("-decades: %w", err)
		}
		s.Ns = sweep.Decades(lo, hi)
	}
	if err := s.Validate(); err != nil {
		return err
	}
	r, cache, sinks, err := common.runner(out)
	if err != nil {
		return err
	}
	defer closeSinks(sinks, &err)
	res, err := r.RunScaling(s)
	if err != nil {
		return err
	}
	if *common.jsonOut {
		return emitJSON(out, res)
	}
	fmt.Fprintf(out, "scaling: %s k=%d ε=%v δ=%v, seed %d\n\n", s.Matrix, s.K, s.ChannelEps, s.Delta, *common.seed)
	fmt.Fprintf(out, "%-14s %-10s %-8s %-10s %s\n", "n", "mean T(n)", "success", "T(n)/ln n", "budget")
	for _, p := range res.Points {
		fmt.Fprintf(out, "%-14d %-10.1f %-8.3f %-10.1f %.2e\n",
			p.Point.N, p.MeanRounds, p.SuccessRate, p.MeanRounds/math.Log(float64(p.Point.N)), p.ErrorBudget)
	}
	if res.Shard != nil {
		fmt.Fprintf(out, "\nshard %s: no fit (it belongs to the merged curve; merge the shard checkpoints and resume on one host)\n", res.Shard)
	} else {
		fmt.Fprintf(out, "\nfit: T(n) = %.1f + %.1f·ln n (R²=%.4f, RMSE %.1f rounds; total budget %.2e, quant leg %.2e)\n",
			res.Fit.Intercept, res.Fit.Slope, res.Fit.R2, res.Fit.RMSE, res.ErrorBudget, res.QuantBudget)
	}
	printResilienceSummary(out, res.Salvaged, res.Quarantined)
	printCacheStats(out, cache)
	return nil
}

// engineName maps the CLI spelling to the sweep package's
// Point.Engine convention ("" = census).
func engineName(s string) string {
	if s == "census" {
		return ""
	}
	return s
}

func emitJSON(out io.Writer, v any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func splitStrings(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range splitStrings(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitStrings(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// parseInt64s accepts plain integers and scientific notation (1e9),
// rejecting values that are not exactly representable integers.
func parseInt64s(s string) ([]int64, error) {
	var out []int64
	for _, p := range splitStrings(s) {
		if v, err := strconv.ParseInt(p, 10, 64); err == nil {
			out = append(out, v)
			continue
		}
		f, err := strconv.ParseFloat(p, 64)
		if err != nil || f != math.Trunc(f) || math.Abs(f) >= 1<<62 {
			return nil, fmt.Errorf("bad population %q", p)
		}
		out = append(out, int64(f))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func parseDecades(s string) (lo, hi int, err error) {
	// Full-match parsing: Sscanf would silently ignore trailing input
	// ("3-9x" → 3..9) instead of rejecting it.
	loStr, hiStr, ok := strings.Cut(s, "-")
	if ok {
		lo, err = strconv.Atoi(loStr)
		if err == nil {
			hi, err = strconv.Atoi(hiStr)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("want lo-hi (e.g. 3-9), got %q", s)
	}
	if lo < 1 {
		// n = 10⁰ = 1 has no schedule (the protocol needs n ≥ 2) and
		// no ln n to normalize by.
		return 0, 0, fmt.Errorf("decades start at 1 (n = 10), got %d-%d", lo, hi)
	}
	if sweep.Decades(lo, hi) == nil {
		return 0, 0, fmt.Errorf("invalid decade range %d-%d", lo, hi)
	}
	return lo, hi, nil
}
