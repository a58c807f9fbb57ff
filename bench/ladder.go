package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"github.com/gossipkit/noisyrumor/internal/census"
	"github.com/gossipkit/noisyrumor/internal/core"
	"github.com/gossipkit/noisyrumor/internal/noise"
	"github.com/gossipkit/noisyrumor/internal/rng"
	"github.com/gossipkit/noisyrumor/internal/sweep"
)

const (
	// minLadderReps and maxLadderReps bound the traced repetitions; the
	// spans of each are kept in memory until the run ends.
	minLadderReps = 3
	maxLadderReps = 5
	// probeQuant is the law-cache step the exact workloads' cache probe
	// uses, the CLI's suggested -law-quant.
	probeQuant = 1e-3
)

// trialOutcome is what one trial contributes to its point's result.
type trialOutcome struct {
	correct bool
	rounds  int
	budget  float64 // the trial's ErrorBudget
	qbudget float64 // its QuantBudget
}

// pointInputs is a point's channel and initial census, resolved the
// way the sweep resolves them.
func pointInputs(p sweep.Point) (*noise.Matrix, []int64, error) {
	nm, err := sweep.BuildMatrix(p.Matrix, p.K, p.ChannelEps)
	if err != nil {
		return nil, nil, err
	}
	counts, err := sweep.InitialCounts(p.N, p.K, p.Delta)
	return nm, counts, err
}

// trialStream is trial t's random stream, as the sweep derives it.
func trialStream(seed uint64, p sweep.Point, t int) *rng.Rand {
	return rng.New(rng.ForkSeed(rng.ForkSeed(seed, uint64(p.Index)), uint64(t)))
}

// checkPoints compares each point's replayed trials with the sweep's
// aggregate: successes, mean rounds and both budget sums, bit for bit
// (the sums run in trial order, as the sweep's do).
func (s *session) checkPoints(what string, points []sweep.PointResult, outs [][]trialOutcome) {
	for i, pr := range points {
		succ, rounds := 0, 0.0
		var budget, qbudget float64
		for _, o := range outs[i] {
			if o.correct {
				succ++
			}
			rounds += float64(o.rounds)
			budget += o.budget
			qbudget += o.qbudget
		}
		if succ != pr.Successes || rounds/float64(len(outs[i])) != pr.MeanRounds ||
			budget != pr.ErrorBudget || qbudget != pr.QuantBudget {
			s.fail(1, "%s: point %d gives %d successes, %v mean rounds, budget %v (quant %v); the sweep reported %d, %v, %v (%v)",
				what, pr.Point.Index, succ, rounds/float64(len(outs[i])), budget, qbudget,
				pr.Successes, pr.MeanRounds, pr.ErrorBudget, pr.QuantBudget)
		}
	}
}

// replayOpts configures one replay of the ladder points.
type replayOpts struct {
	cache *census.LawCache // the phase replay's law cache
	quant float64          // Stage-2 law quantization; < 0 keeps each point's own
	// full adds steps 3 and 5 around the phase replay: each point's
	// trials first run through core.CensusRunner (the outcomes the
	// phase replay must reproduce), and census.MajorityLaw is timed at
	// every Stage-2 phase afterwards.
	full bool
}

// replayStats is what one replay measured.
type replayStats struct {
	outs     [][]trialOutcome // step 3's outcomes, per point (full only)
	trialMS  []float64
	trialSec float64

	stage1US, stage2US, lawUS, hitUS, missUS []float64

	phaseSec, stage2Sec float64
	lawSec              float64 // the evaluations the engine paid for
	lawEvals            int     // how many those were
	splits, multis      int     // noise splits and class multinomials drawn
	hits, misses        int64   // law-cache lookups
	qbudget             float64 // Σ per-phase quantization certificates
	mismatched          int     // points whose phase replay differed from step 3
}

// phaseSnap is one replayed phase: its length and whether it ended in
// consensus on the correct opinion, and for a Stage-2 phase what its
// law timing needs.
type phaseSnap struct {
	rounds    int
	consensus bool
	span      int32   // Stage 2 only from here on
	counts    []int64 // the census before the phase
	ell       int
	charged   bool // the engine evaluated the law in this phase
}

// replayer runs the ladder's in-process steps over points, one point
// at a time so that host drift lands on every step alike:
//
//   - step 3: the point's trials through one reused core.CensusRunner,
//     each on its own stream, as a sweep worker runs them;
//   - step 4: the same trials phase by phase through one reused
//     census.Engine, every phase timed on its own, the law cache's
//     Stats diffed around each Stage-2 phase to classify it as a hit
//     or a miss, and each trial's outcome checked against step 3's;
//   - step 5: census.MajorityLaw timed at each Stage-2 phase's expected
//     pool composition (the channel applied to the census before it).
//
// Without opts.full only step 4 runs (the warm pass and the cache
// probe). The runner, engine and caches persist across replay calls,
// as a sweep worker keeps them across points.
type replayer struct {
	seed  uint64
	opts  replayOpts
	cr    *core.CensusRunner // step 3's (full only)
	eng   *census.Engine     // step 4's, made on first use
	snaps []phaseSnap
	st    replayStats
}

func newReplayer(seed uint64, opts replayOpts) *replayer {
	rp := &replayer{seed: seed, opts: opts}
	if opts.full {
		rp.cr = core.NewCensusRunner(census.NewLawCache())
	}
	return rp
}

// replay runs points through the steps, adding to rp.st.
func (rp *replayer) replay(points []sweep.PointResult, tr *tracer, parent int32) error {
	st, opts := &rp.st, rp.opts
	for _, pr := range points {
		p := pr.Point
		nm, counts, err := pointInputs(p)
		if err != nil {
			return err
		}
		sched, err := core.NewSchedule(p.N, p.Params)
		if err != nil {
			return err
		}
		tol := census.DefaultTolerance
		if p.Params.CensusTol > 0 {
			tol = p.Params.CensusTol
		}
		quant := p.Params.LawQuant
		if opts.quant >= 0 {
			quant = opts.quant
		}
		pid := tr.begin("ladder.point", parent)
		var outs []trialOutcome
		if opts.full {
			outs = make([]trialOutcome, pr.Trials)
			for t := range outs {
				id := tr.begin("core.CensusRunner.Run", pid)
				res, err := rp.cr.Run(p.N, nm, p.Params, counts, 0, false, trialStream(rp.seed, p, t))
				d := tr.end(id)
				if err != nil {
					return err
				}
				st.trialSec += d
				st.trialMS = append(st.trialMS, 1e3*d)
				rounds := res.Rounds
				if res.FirstAllCorrect >= 0 {
					rounds = res.FirstAllCorrect
				}
				outs[t] = trialOutcome{correct: res.Correct, rounds: rounds, budget: res.ErrorBudget, qbudget: res.QuantBudget}
			}
			st.outs = append(st.outs, outs)
		}
		bad := false
		for t := 0; t < pr.Trials; t++ {
			r := trialStream(rp.seed, p, t)
			if rp.eng == nil {
				if rp.eng, err = census.New(p.N, nm, r); err != nil {
					return err
				}
				rp.eng.SetCache(opts.cache)
				err = rp.eng.Init(counts)
			} else {
				err = rp.eng.Reset(p.N, nm, r, counts)
			}
			eng := rp.eng
			if err == nil {
				err = eng.SetTolerance(tol)
			}
			if err == nil {
				err = eng.SetLawQuant(quant)
			}
			if err != nil {
				return err
			}
			trial := tr.begin("census.trial", pid)
			if rp.snaps, err = st.phases(eng, sched, quant, opts.cache, rp.snaps[:0], tr, trial); err != nil {
				return err
			}
			tr.end(trial)
			rounds, first := 0, -1
			for _, sn := range rp.snaps {
				rounds += sn.rounds
				if first < 0 && sn.consensus {
					first = rounds
				}
			}
			if first < 0 {
				first = rounds
			}
			got := trialOutcome{correct: eng.Consensus(0), rounds: first, budget: eng.ErrorBudget(), qbudget: eng.QuantBudget()}
			if opts.full {
				bad = bad || got != outs[t]
				if err := timeLaw(st, rp.snaps, nm, tol, tr); err != nil {
					return err
				}
			}
		}
		tr.end(pid)
		if bad {
			st.mismatched++
		}
	}
	return nil
}

// phases advances eng through one trial's schedule, timing every phase
// and classifying the Stage-2 ones, and returns one snapshot per phase.
func (st *replayStats) phases(eng *census.Engine, sched core.Schedule, quant float64, cache *census.LawCache,
	snaps []phaseSnap, tr *tracer, parent int32) ([]phaseSnap, error) {

	for _, n := range sched.Stage1 {
		und := eng.Undecided()
		id := tr.begin("census.Engine.Stage1Phase", parent)
		err := eng.Stage1Phase(n)
		d := tr.end(id)
		if err != nil {
			return nil, err
		}
		st.stage1US = append(st.stage1US, 1e6*d)
		st.phaseSec += d
		st.splits++
		if und > 0 {
			st.multis++
		}
		snaps = append(snaps, phaseSnap{rounds: n, consensus: eng.Consensus(0)})
	}
	for _, ph := range sched.Stage2 {
		before, und := eng.Counts(), eng.Undecided()
		h0, m0 := cache.Stats()
		q0 := eng.QuantBudget()
		id := tr.begin("census.Engine.Stage2Phase", parent)
		err := eng.Stage2Phase(ph.Rounds, ph.SampleSize)
		d := tr.end(id)
		if err != nil {
			return nil, err
		}
		h1, m1 := cache.Stats()
		cert := eng.QuantBudget() - q0
		st.qbudget += cert
		st.hits += h1 - h0
		st.misses += m1 - m0
		st.stage2US = append(st.stage2US, 1e6*d)
		st.phaseSec += d
		st.stage2Sec += d
		st.splits++
		for _, c := range before {
			if c > 0 {
				st.multis++
			}
		}
		if und > 0 {
			st.multis++
		}
		// A lookup whose phase charged no certificate fell back to the
		// exact law at q (or q sat on the lattice): the engine evaluated
		// the law either way, as it does on a miss.
		lookedUp := h1+m1 > h0+m0
		switch {
		case lookedUp && m1 > m0:
			st.missUS = append(st.missUS, 1e6*d)
		case lookedUp && cert > 0:
			st.hitUS = append(st.hitUS, 1e6*d)
		}
		snaps = append(snaps, phaseSnap{
			span: id, counts: before, ell: ph.SampleSize, rounds: ph.Rounds, consensus: eng.Consensus(0),
			charged: quant == 0 || (lookedUp && (m1 > m0 || cert == 0)),
		})
	}
	return snaps, nil
}

// timeLaw is ladder step 5 for one trial: one census.MajorityLaw call
// at each Stage-2 phase's expected pool composition. Each result must
// be a sub-distribution whose missing mass the returned truncation
// mass covers (the law is exact up to its accounted truncation).
func timeLaw(st *replayStats, snaps []phaseSnap, nm *noise.Matrix, tol float64, tr *tracer) error {
	frac := make([]float64, nm.K())
	for _, sn := range snaps {
		total := 0.0
		for _, c := range sn.counts {
			total += float64(c)
		}
		if total == 0 {
			continue // a Stage-1 phase, or nobody pushed
		}
		for j, c := range sn.counts {
			frac[j] = float64(c) / total
		}
		q := nm.Apply(frac, nil)
		id := tr.begin("census.MajorityLaw", sn.span)
		law, dropped := census.MajorityLaw(q, sn.ell, tol)
		d := tr.end(id)
		mass := 0.0
		for _, v := range law {
			mass += v
		}
		if mass > 1+1e-9 || mass+dropped < 1-1e-9 {
			return fmt.Errorf("MajorityLaw(%v, ℓ=%d) has mass %v with %v truncated", q, sn.ell, mass, dropped)
		}
		st.lawUS = append(st.lawUS, 1e6*d)
		if sn.charged {
			st.lawSec += d
			st.lawEvals++
		}
	}
	return nil
}

// ladderShards is how many index-residue slices a grid's ladder spec
// runs in: step 2 on one slice, steps 3–5 on the same points, then the
// next slice, so the serial run and its replay meet the same host. A
// bisection's evaluations depend on each other and run as one.
const ladderShards = 4

// ladderPass is one repetition of ladder steps 2–5.
type ladderPass struct {
	serial float64             // step 2: the ladder spec through sweep at one worker, seconds
	draws  float64             // step 4's sampler calls × their probed per-call cost, seconds
	points []sweep.PointResult // step 2's points, in the order they ran
	encs   [][]byte            // step 2's results, one per slice, as the CLI encodes them
	st     replayStats
	cache  *census.LawCache // step 4's, warm afterwards
}

// self returns the pass's self-time per layer: each layer's pass minus
// the pass of the layer below it.
func (lp ladderPass) self() map[string]float64 {
	st := lp.st
	return map[string]float64{
		"sweep.self_s":      lp.serial - st.trialSec,
		"core.self_s":       st.trialSec - st.phaseSec,
		"census.self_s":     st.phaseSec - st.lawSec - lp.draws,
		"census.law.self_s": st.lawSec,
		"dist.self_s":       lp.draws,
	}
}

// ladderRep runs steps 2–5 once on the ladder spec lw and checks that
// each step reproduces the one above it exactly. The serial slices
// share one law cache, as the replay's steps each share theirs, so
// every side meets the same cache history.
func (s *session) ladderRep(lw workload, costs drawCosts, tr *tracer, parent int32) (ladderPass, error) {
	lp := ladderPass{cache: census.NewLawCache()}
	rp := newReplayer(s.cfg.seed, replayOpts{cache: lp.cache, quant: -1, full: true})
	serialCache := census.NewLawCache()
	shards := 1
	if lw.grid != nil {
		shards = ladderShards
	}
	for i := 0; i < shards; i++ {
		r := sweep.Runner{Seed: s.cfg.seed, Workers: 1, Cache: serialCache}
		if shards > 1 {
			r.Shard = sweep.Shard{Index: i, Of: shards}
		}
		id := tr.begin("sweep.Runner.Run[workers=1]", parent)
		out, err := lw.run(r)
		lp.serial += tr.end(id)
		if err != nil {
			return lp, err
		}
		enc, err := out.encode()
		if err != nil {
			return lp, err
		}
		lp.encs = append(lp.encs, enc)
		lp.points = append(lp.points, out.points...)
		s.attempted += len(out.points)

		id = tr.begin("ladder.replay", parent)
		err = rp.replay(out.points, tr, id)
		tr.end(id)
		if err != nil {
			return lp, err
		}
	}
	lp.st = rp.st
	s.checkPoints("trial replay", lp.points, lp.st.outs)
	if n := lp.st.mismatched; n > 0 {
		s.fail(n, "phase replay: %d point(s) differ from the trial replay", n)
	}
	lp.draws = (float64(lp.st.splits)*costs.split + float64(lp.st.multis)*costs.multinomial) * 1e-9
	return lp, nil
}

// layers is the --trace 1 run. Each repetition times the CLI once
// (the end-to-end anchor), runs the full spec in process at two
// workers (step 1), then the ladder steps 2–5 on a quarter of the
// trials. The per-layer numbers are medians over the repetitions.
func (s *session) layers() (map[string]metric, error) {
	tr := newTracer()
	lw := s.w.ladderSpec()
	costs, err := measureDraws(s.out.points, s.cfg.seed)
	if err != nil {
		return nil, err
	}
	var (
		cliWalls, cliCPU, runS, hostRefs []float64
		passes                           []ladderPass
		trialMS, stage1, stage2, law     []float64
		hitUS, missUS                    []float64
	)
	ck := filepath.Join(s.dir, "rep.ck")
	start := time.Now()
	for rep := 0; rep < minLadderReps || (rep < maxLadderReps && time.Since(start).Seconds() < s.cfg.seconds); rep++ {
		root := tr.begin("ladder.rep", -1)
		ref, err := hostRefMS()
		if err != nil {
			return nil, err
		}
		hostRefs = append(hostRefs, ref)

		id := tr.begin("cmd/sweep", root)
		run, ok := s.invoke(fmt.Sprintf("rep %d", rep), s.inst[0], workers, ck)
		tr.end(id)
		if ok {
			cliWalls = append(cliWalls, run.wall)
			cliCPU = append(cliCPU, run.cpu)
		}
		if err := removeJournal(ck); err != nil {
			return nil, err
		}

		id = tr.begin("sweep.Runner.Run", root)
		out, err := s.w.run(sweep.Runner{Seed: s.cfg.seed, Workers: workers})
		runS = append(runS, tr.end(id))
		if err != nil {
			return nil, err
		}
		s.expectRef("in-process run", out)

		lp, err := s.ladderRep(lw, costs, tr, root)
		if err != nil {
			return nil, err
		}
		tr.end(root)
		if len(passes) > 0 && !slices.EqualFunc(lp.encs, passes[0].encs, bytes.Equal) {
			s.fail(len(lp.points), "ladder rep %d: serial result differs from rep 0", rep)
		}
		passes = append(passes, lp)
		trialMS = append(trialMS, lp.st.trialMS...)
		stage1 = append(stage1, lp.st.stage1US...)
		stage2 = append(stage2, lp.st.stage2US...)
		law = append(law, lp.st.lawUS...)
		hitUS = append(hitUS, lp.st.hitUS...)
		missUS = append(missUS, lp.st.missUS...)
	}
	if len(cliWalls) == 0 {
		return nil, fmt.Errorf("no CLI invocation succeeded")
	}
	p0 := passes[0]
	ladderPts := p0.points

	// Step 6 and the cache probe. A quantized workload's cold numbers
	// are rep 0's step 4; a second pass over the last repetition's
	// now-warm cache gives the warm hit rate. An exact workload never
	// consults the cache, so
	// its counts stay zero and the hit/miss phase times come from a
	// replay at probeQuant.
	var hitRateCold, hitRateWarm float64
	var misses, dropped int64
	if s.w.lawQuant() > 0 {
		c := p0.st
		misses, dropped = c.misses, p0.cache.DroppedStores()
		hitRateCold = float64(c.hits) / float64(c.hits+c.misses)
		last := passes[len(passes)-1]
		id := tr.begin("ladder.phases[warm]", -1)
		warm := newReplayer(s.cfg.seed, replayOpts{cache: last.cache, quant: -1})
		err := warm.replay(ladderPts, tr, id)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		hitRateWarm = float64(warm.st.hits) / float64(warm.st.hits+warm.st.misses)
	} else {
		id := tr.begin("ladder.phases[probe]", -1)
		probe := newReplayer(s.cfg.seed, replayOpts{cache: census.NewLawCache(), quant: probeQuant})
		err := probe.replay(ladderPts, tr, id)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		hitUS, missUS = probe.st.hitUS, probe.st.missUS
	}
	// The per-phase certificates must add up to the trials' quant legs.
	wantQ := 0.0
	for _, pr := range ladderPts {
		wantQ += pr.QuantBudget
	}
	if d := math.Abs(p0.st.qbudget - wantQ); d > 1e-9*math.Max(1, wantQ) {
		s.fail(len(ladderPts), "per-phase quantization certificates sum to %v, the trials' quant budgets to %v", p0.st.qbudget, wantQ)
	}

	obsMed, obsLo, obsHi, busy, err := s.obsOverhead(lw, tr)
	if err != nil {
		return nil, err
	}
	putUS, err := s.checkpointPutUS(tr)
	if err != nil {
		return nil, err
	}
	resumeMS, err := s.resumeMS(tr)
	if err != nil {
		return nil, err
	}

	// Attribution: per repetition every layer's self-time is its pass
	// minus the pass below, so a repetition's self-times sum to its
	// serial run exactly; the medians of separate passes need not, and
	// what they leave over is the unattributed share.
	runMed := median(runS)
	serial := make([]float64, len(passes))
	selfs := map[string][]float64{}
	var share []float64
	for i, lp := range passes {
		serial[i] = lp.serial
		for k, v := range lp.self() {
			selfs[k] = append(selfs[k], v)
		}
		share = append(share, lp.st.lawSec/lp.st.stage2Sec)
	}
	serialMed := median(serial)
	attributed, width := 0.0, 0.0
	for _, v := range selfs {
		attributed += median(v)
		vs := sorted(v)
		width += vs[len(vs)-1] - vs[0]
	}

	m := map[string]metric{}
	ph := p0.st
	reps := fmt.Sprintf("%d reps", len(passes))
	s.layer(m, "census.law.eval_us.p50", median(law), sampleNote(law))
	s.layerTail(m, "census.law.eval_us.tail", law)
	s.layer(m, "census.law.evals", float64(ph.lawEvals), "evaluations the engine paid for, per ladder pass")
	s.layer(m, "census.law.share", median(share), "law ÷ Stage-2 phase time, median of "+reps)
	s.layer(m, "census.law.self_s", median(selfs["census.law.self_s"]), reps)
	s.layer(m, "census.lawcache.hit_rate_cold", hitRateCold, "")
	s.layer(m, "census.lawcache.hit_rate_warm", hitRateWarm, "")
	s.layer(m, "census.lawcache.misses", float64(misses), "cold ladder pass")
	s.layer(m, "census.lawcache.dropped_stores", float64(dropped), "cold ladder pass")
	s.layer(m, "census.lawcache.miss_phase_us.p50", median(missUS), sampleNote(missUS))
	s.layer(m, "census.lawcache.hit_phase_us.p50", median(hitUS), sampleNote(hitUS))
	s.layer(m, "census.stage2.phase_us.p50", median(stage2), sampleNote(stage2))
	s.layerTail(m, "census.stage2.phase_us.tail", stage2)
	s.layer(m, "census.stage2.phases", float64(len(ph.stage2US)), "per ladder pass")
	s.layer(m, "census.stage1.phase_us.p50", median(stage1), sampleNote(stage1))
	s.layer(m, "census.stage1.phases", float64(len(ph.stage1US)), "per ladder pass")
	s.layer(m, "census.self_s", median(selfs["census.self_s"]), "phases − law − draws, "+reps)
	s.layer(m, "dist.multinomial64_ns", costs.multinomial, "")
	s.layer(m, "dist.binomial64_ns", costs.binomial, "")
	s.layer(m, "noise.split64_ns", costs.split, "")
	s.layer(m, "dist.self_s", median(selfs["dist.self_s"]),
		fmt.Sprintf("%d splits and %d class draws per ladder pass × their probed cost", ph.splits, ph.multis))
	s.layer(m, "core.trial_ms.p50", median(trialMS), sampleNote(trialMS))
	s.layerTail(m, "core.trial_ms.tail", trialMS)
	s.layer(m, "core.self_s", median(selfs["core.self_s"]), "trial replay − phase replay, "+reps)
	s.layer(m, "sweep.run_s", runMed, "full spec in process, "+sampleNote(runS))
	s.layer(m, "sweep.busy_frac", busy, "Σ worker busy seconds ÷ (2 × run time), instrumented ladder runs")
	s.layer(m, "sweep.self_s", median(selfs["sweep.self_s"]), "serial ladder run − trial replay, "+reps)
	s.layer(m, "sweep.points", float64(len(s.out.points)), "")
	s.layer(m, "sweep.trials", float64(s.out.trials()), "")
	s.layer(m, "sweep.checkpoint.put_us", putUS, fmt.Sprintf("median of %d pairs", pairs))
	s.layer(m, "sweep.checkpoint.resume_ms", resumeMS, fmt.Sprintf("median of %d", pairs))
	s.layer(m, "cmd_sweep.residual_s", median(cliWalls)-runMed, "CLI wall − sweep.run_s, "+sampleNote(cliWalls))
	s.layer(m, "cmd_sweep.cpu_s", median(cliCPU), sampleNote(cliCPU))
	verdict := "outside noise"
	if obsLo <= 0 && obsHi >= 0 {
		verdict = "within noise"
	}
	s.layer(m, "obs.overhead_pct", obsMed, fmt.Sprintf("%s: pairs span [%.2f, %.2f]%%", verdict, obsLo, obsHi))
	s.layer(m, "obs.overhead_pct.lo", obsLo, "")
	s.layer(m, "obs.overhead_pct.hi", obsHi, "")
	s.layer(m, "bench.unattributed_frac", (serialMed-attributed)/serialMed,
		fmt.Sprintf("serial ladder run %.4g s, Σ median self-times %.4g s", serialMed, attributed))
	s.layer(m, "bench.unattributed_frac.spread", width/serialMed, "Σ over layers of the self-time range across reps ÷ serial run")
	s.layer(m, "bench.host_ref_ms", median(hostRefs), sampleNote(hostRefs))

	if s.cfg.traceOut != "" {
		if err := tr.write(s.cfg.traceOut); err != nil {
			return nil, err
		}
		fmt.Fprintf(s.log, "wrote %d spans to %s\n", len(tr.spans), s.cfg.traceOut)
	}
	return m, nil
}

// layer records a per-layer metric under its BENCHMARK.json unit and
// prints it with the prediction written down for it.
func (s *session) layer(m map[string]metric, name string, v float64, note string) {
	for _, lm := range layerMetrics {
		if lm.name != name {
			continue
		}
		if len(lm.moves) > 0 {
			pred := "should move " + strings.Join(lm.moves, ",") + " on " + strings.Join(lm.on, ",")
			if len(lm.flat) > 0 {
				pred += "; no change on " + strings.Join(lm.flat, ",")
			}
			if note != "" {
				note += "; "
			}
			note += pred
		}
		s.put(m, name, v, lm.unit, note)
		return
	}
	panic("bench: per-layer metric " + name + " is not in layerMetrics")
}

// layerTail records a timing's tail percentile (see tail).
func (s *session) layerTail(m map[string]metric, name string, xs []float64) {
	v, p := tail(xs)
	s.layer(m, name, v, fmt.Sprintf("p%s of n=%d", fmtFloat(p), len(xs)))
}
