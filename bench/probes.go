package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"github.com/gossipkit/noisyrumor/internal/core"
	"github.com/gossipkit/noisyrumor/internal/dist"
	"github.com/gossipkit/noisyrumor/internal/obs"
	"github.com/gossipkit/noisyrumor/internal/rng"
	"github.com/gossipkit/noisyrumor/internal/sweep"
)

// pairs is how many interleaved A/B pairs the paired probes run; the
// order alternates so a drifting host favours neither side.
const pairs = 5

// hostRefKernel is one goroutine's share of the host reference: a
// fixed floating-point and random-number loop of the census engine's
// kind, on the standard library only, so its cost moves with the host
// and never with the repository's code.
func hostRefKernel(seed uint64) float64 {
	r := rand.New(rand.NewPCG(seed, hostRefSalt))
	tab := make([]float64, 4096)
	for i := range tab {
		tab[i] = r.Float64()
	}
	acc := 0.0
	for pass := 0; pass < 500; pass++ {
		for i := 1; i < len(tab); i++ {
			x := 0.5 * (tab[i-1] + tab[i])
			acc += math.Log1p(x) * math.Exp(-x)
			tab[i] = x + 1e-3*r.Float64()
		}
	}
	return acc
}

const hostRefSalt = 0x484f5354 // "HOST"

// hostRefSum keeps the reference kernel's result live.
var hostRefSum float64

// hostRefMS runs the reference kernel on as many goroutines as the timed
// invocations have workers and returns the CPU milliseconds this process
// spent on it, about 170 ms on the defining host (see README.md).
func hostRefMS() (float64, error) {
	c0, err := selfCPU()
	if err != nil {
		return 0, err
	}
	sums := make([]float64, workers)
	var wg sync.WaitGroup
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[g] = hostRefKernel(uint64(g))
		}()
	}
	wg.Wait()
	c1, err := selfCPU()
	if err != nil {
		return 0, err
	}
	for _, v := range sums {
		hostRefSum += v
	}
	return (c1 - c0) * 1e3, nil
}

// selfCPU is this process's user + system CPU seconds so far.
func selfCPU() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), nil
}

// nsPerCall times f in batches of about four milliseconds and returns
// the median nanoseconds per call over five batches.
func nsPerCall(f func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t0) >= time.Millisecond {
			break
		}
		n *= 2
	}
	n *= 4
	per := make([]float64, 5)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// drawCosts are the per-call costs of the engine's samplers.
type drawCosts struct {
	multinomial, binomial, split float64 // ns per call
}

// drawSalt keys the sampler probes' stream away from every trial's.
const drawSalt = 0x44524157 // "DRAW"

// measureDraws times dist.SampleMultinomial64, dist.SampleBinomial64
// and noise.Matrix.SplitCounts64 on the inputs of the workload's
// largest point (largest n, then largest k): its initial census, and
// the sent multiset of its first Stage-2 phase.
func measureDraws(pts []sweep.PointResult, seed uint64) (drawCosts, error) {
	p := pts[0].Point
	for _, pr := range pts {
		if q := pr.Point; q.N > p.N || (q.N == p.N && q.K > p.K) {
			p = q
		}
	}
	nm, err := sweep.BuildMatrix(p.Matrix, p.K, p.ChannelEps)
	if err != nil {
		return drawCosts{}, err
	}
	counts, err := sweep.InitialCounts(p.N, p.K, p.Delta)
	if err != nil {
		return drawCosts{}, err
	}
	sched, err := core.NewSchedule(p.N, p.Params)
	if err != nil {
		return drawCosts{}, err
	}
	rounds := int64(sched.Stage2[0].Rounds)
	k := len(counts)
	sent, dst, scratch := make([]int64, k), make([]int64, k), make([]int64, k)
	for i, c := range counts {
		sent[i] = c * rounds
	}
	// A Stage-2 class transition: update to each opinion by row 0 of
	// the channel, or keep (the last cell).
	probs := append(nm.Row(0), 0)
	for j := range probs[:k] {
		probs[j] *= 0.9
	}
	probs[k] = 0.1
	out := make([]int64, k+1)
	r := rng.New(rng.ForkSeed(seed, drawSalt))
	var sink int64
	c := drawCosts{
		split:       nsPerCall(func() { nm.SplitCounts64(r, sent, dst, scratch) }),
		multinomial: nsPerCall(func() { dist.SampleMultinomial64(r, counts[0], probs, out) }),
		binomial:    nsPerCall(func() { sink += dist.SampleBinomial64(r, counts[0], 0.3) }),
	}
	if sink < 0 {
		return drawCosts{}, fmt.Errorf("negative binomial draw")
	}
	return c, nil
}

// obsOverhead runs lw in process with and without the registry-backed
// instrumentation a -metrics-addr run wires up, in interleaved pairs,
// and returns the median and extreme pair overheads in percent. Every
// instrumented result must equal the bare one (observability is
// write-only). The instrumented runs also yield the worker pool's
// utilisation: the sweep's own per-worker busy-seconds gauges summed,
// over workers × the run's time (median over the pairs).
func (s *session) obsOverhead(lw workload, tr *tracer) (med, lo, hi, busy float64, err error) {
	var pct, busyFrac []float64
	var bare []byte
	for i := 0; i < pairs; i++ {
		var on, off float64
		for _, instrumented := range []bool{i%2 == 1, i%2 == 0} {
			r := sweep.Runner{Seed: s.cfg.seed, Workers: workers}
			reg := obs.NewRegistry()
			name := "obs.bare"
			if instrumented {
				r.Obs = sweep.NewInstrumentation(reg, nil, obs.WallClock{})
				name = "obs.instrumented"
			}
			id := tr.begin(name, -1)
			out, err := lw.run(r)
			d := tr.end(id)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			s.attempted += len(out.points)
			enc, err := out.encode()
			if err != nil {
				return 0, 0, 0, 0, err
			}
			if bare == nil {
				bare = enc
			} else if !bytes.Equal(enc, bare) {
				s.fail(len(out.points), "%s run differs from the first obs pair run", name)
			}
			if instrumented {
				on = d
				busyFrac = append(busyFrac, gaugeSum(reg, "sweep_worker_busy_seconds")/(workers*d))
			} else {
				off = d
			}
		}
		pct = append(pct, 100*(on/off-1))
	}
	ps := sorted(pct)
	return median(pct), ps[0], ps[len(ps)-1], median(busyFrac), nil
}

// gaugeSum adds up every series of the named gauge family.
func gaugeSum(reg *obs.Registry, name string) float64 {
	sum := 0.0
	for _, m := range reg.Snapshot() {
		if m.Name != name {
			continue
		}
		for _, v := range m.Values {
			if v.Value != nil {
				sum += *v.Value
			}
		}
	}
	return sum
}

// checkpointPutUS is the journal's per-point append cost from
// outside: grid-k2's 1,344-point layout at one trial and n = 10³, run
// in process with and without Runner.Checkpoint in interleaved pairs;
// the median pair difference divided by the point count.
func (s *session) checkpointPutUS(tr *tracer) (float64, error) {
	k2, err := workloadByName("grid-k2")
	if err != nil {
		return 0, err
	}
	g := *k2.grid
	g.Trials = 1
	g.Ns = make([]int64, len(k2.grid.Ns))
	for i := range g.Ns {
		g.Ns[i] = 1e3
	}
	w := workload{name: "checkpoint-probe", grid: &g}
	var per []float64
	for i := 0; i < pairs; i++ {
		var with, without float64
		points := 0
		for _, journal := range []bool{i%2 == 1, i%2 == 0} {
			r := sweep.Runner{Seed: s.cfg.seed, Workers: workers}
			name := "checkpoint.off"
			if journal {
				r.Checkpoint = filepath.Join(s.dir, "put.ck")
				name = "checkpoint.on"
			}
			id := tr.begin(name, -1)
			out, err := w.run(r)
			d := tr.end(id)
			if err != nil {
				return 0, err
			}
			if journal {
				with = d
				if err := removeJournal(r.Checkpoint); err != nil {
					return 0, err
				}
			} else {
				without = d
			}
			points = len(out.points)
		}
		per = append(per, (with-without)/float64(points)*1e6)
	}
	return median(per), nil
}

// resumeMS times an in-process run over the warm-up's complete
// journal: open, CRC check and replay of every point, no trials.
func (s *session) resumeMS(tr *tracer) (float64, error) {
	var ms []float64
	for i := 0; i < pairs; i++ {
		id := tr.begin("checkpoint.resume", -1)
		out, err := s.w.run(sweep.Runner{Seed: s.cfg.seed, Workers: workers, Checkpoint: s.journal})
		ms = append(ms, 1e3*tr.end(id))
		if err != nil {
			return 0, err
		}
		s.expectRef("in-process resume", out)
	}
	return median(ms), nil
}

// expectRef checks an in-process outcome against the CLI's output.
func (s *session) expectRef(what string, out outcome) {
	s.attempted += len(out.points)
	enc, err := out.encode()
	if err != nil {
		s.fail(len(out.points), "%s: %v", what, err)
		return
	}
	if !bytes.Equal(enc, s.ref) {
		s.fail(len(out.points), "%s: result differs from the CLI's output", what)
	}
}
