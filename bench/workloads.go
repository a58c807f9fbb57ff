package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"github.com/gossipkit/noisyrumor/internal/sweep"
)

// workload is one benchmark input: a cmd/sweep spec, run the way a
// user runs it. Exactly one of grid and bisect is set. The CLI
// arguments are derived from the same struct the in-process ladder
// runs, so the two sides cannot drift apart.
type workload struct {
	name   string
	why    string
	grid   *sweep.Grid
	bisect *sweep.Bisect
}

// k35 is the 16-point k ≥ 3 grid shared by the exact and the quantized
// workload: same points, same trials, the law layer used two ways.
func k35(lawQuant float64) *sweep.Grid {
	return &sweep.Grid{
		Matrices:   []string{"uniform", "cycle"},
		Ks:         []int{3, 5},
		ChannelEps: []float64{0.15, 0.25},
		Deltas:     []float64{0.05, 0.15},
		Ns:         []int64{1e6},
		ProtoEps:   0.25,
		Trials:     12,
		LawQuant:   lawQuant,
	}
}

// workloads are the benchmark's inputs, in BENCHMARK.json order. The
// why strings are BENCHMARK.json's; a test keeps the two identical.
var workloads = []workload{
	{
		name: "grid-k2",
		why:  "many short k=2 trials over n=1e3..1e9: worker hand-off, per-point barriers, journal appends, dist/noise draws and the closed-form k=2 law carry the cost",
		grid: &sweep.Grid{
			Matrices:   []string{"binary", "uniform"},
			Ks:         []int{2},
			ChannelEps: []float64{0.10, 0.12, 0.14, 0.16, 0.18, 0.20, 0.22, 0.24, 0.26, 0.28, 0.30, 0.35},
			Deltas:     []float64{0.01, 0.02, 0.05, 0.08, 0.10, 0.15, 0.20, 0.30},
			Ns:         []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9},
			ProtoEps:   0.4,
			Trials:     16,
		},
	},
	{
		name: "grid-k35-exact",
		why:  "16 points at k=3,5 and l=81: every Stage-2 phase runs the exact rival DP, so the k>=3 law dominates and sweep and journal costs vanish",
		grid: k35(0),
	},
	{
		name: "grid-k35-quant",
		why:  "the same points and trials through the law cache (-law-quant 1e-3): lookups plus a certificate per miss, so a cache change shows here and a DP change only via misses",
		grid: k35(1e-3),
	},
	{
		name: "bisect-k3",
		why:  "the paper's critical-noise instrument: 11 sequential bisection evaluations at k=3, l=57, each a barrier of 100 trials, so time-to-answer rests on batch barriers and the k=3 law",
		bisect: &sweep.Bisect{
			Matrix: "uniform", K: 3, N: 1e6, Delta: 0.1, ProtoEps: 0.3,
			Lo: 0.05, Hi: 0.4, Tol: 0.001, Trials: 100, Batch: 100,
		},
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func joinFloats(vs []float64) string {
	s := make([]string, len(vs))
	for i, v := range vs {
		s[i] = fmtFloat(v)
	}
	return strings.Join(s, ",")
}

func joinInts[T int | int64](vs []T) string {
	s := make([]string, len(vs))
	for i, v := range vs {
		s[i] = strconv.FormatInt(int64(v), 10)
	}
	return strings.Join(s, ",")
}

// args returns the cmd/sweep command line of w at seed, less the
// per-invocation -workers and -checkpoint flags.
func (w workload) args(seed uint64) []string {
	var a []string
	if g := w.grid; g != nil {
		a = []string{"grid", "-matrix", strings.Join(g.Matrices, ","), "-k", joinInts(g.Ks),
			"-eps", joinFloats(g.ChannelEps), "-delta", joinFloats(g.Deltas), "-n", joinInts(g.Ns),
			"-proto-eps", fmtFloat(g.ProtoEps), "-trials", strconv.Itoa(g.Trials)}
		if g.LawQuant > 0 {
			a = append(a, "-law-quant", fmtFloat(g.LawQuant))
		}
	} else {
		b := w.bisect
		a = []string{"bisect", "-matrix", b.Matrix, "-k", strconv.Itoa(b.K), "-n", strconv.FormatInt(b.N, 10),
			"-delta", fmtFloat(b.Delta), "-proto-eps", fmtFloat(b.ProtoEps), "-lo", fmtFloat(b.Lo),
			"-hi", fmtFloat(b.Hi), "-tol", fmtFloat(b.Tol), "-trials", strconv.Itoa(b.Trials),
			"-batch", strconv.Itoa(b.Batch)}
		if b.LawQuant > 0 {
			a = append(a, "-law-quant", fmtFloat(b.LawQuant))
		}
	}
	return append(a, "-seed", strconv.FormatUint(seed, 10), "-json")
}

// lawQuant is the workload's Stage-2 law quantization step (0 = exact).
func (w workload) lawQuant() float64 {
	if w.grid != nil {
		return w.grid.LawQuant
	}
	return w.bisect.LawQuant
}

// ladderSpec is w with a quarter of the trials: the spec the traced
// in-process passes replay trial by trial and phase by phase.
func (w workload) ladderSpec() workload {
	l := w
	if w.grid != nil {
		g := *w.grid
		g.Trials = max(1, g.Trials/4)
		l.grid = &g
	} else {
		b := *w.bisect
		b.Trials = max(1, b.Trials/4)
		b.Batch = max(1, b.Batch/4)
		l.bisect = &b
	}
	return l
}

// outcome is one finished sweep, from the CLI's JSON or in process.
type outcome struct {
	raw      any // *sweep.GridResult or *sweep.BisectResult
	points   []sweep.PointResult
	budget   float64 // the result's total ErrorBudget
	critical float64 // bisect only: the located ε*
}

func (o outcome) trials() int {
	n := 0
	for _, p := range o.points {
		n += p.Trials
	}
	return n
}

// encode renders the result exactly as `cmd/sweep -json` prints it.
func (o outcome) encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(o.raw); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gridOutcome(res *sweep.GridResult) outcome {
	return outcome{raw: res, points: res.Points, budget: res.ErrorBudget}
}

func bisectOutcome(res *sweep.BisectResult) outcome {
	pts := make([]sweep.PointResult, len(res.Evals))
	for i, ev := range res.Evals {
		pts[i] = ev.Result
	}
	return outcome{raw: res, points: pts, budget: res.ErrorBudget, critical: res.Critical}
}

// run executes w in process on r.
func (w workload) run(r sweep.Runner) (outcome, error) {
	if w.grid != nil {
		res, err := r.RunGrid(*w.grid)
		if err != nil {
			return outcome{}, err
		}
		return gridOutcome(res), nil
	}
	res, err := r.RunBisect(*w.bisect)
	if err != nil {
		return outcome{}, err
	}
	return bisectOutcome(res), nil
}

// parse decodes the CLI's -json output for w.
func (w workload) parse(data []byte) (outcome, error) {
	if w.grid != nil {
		var res sweep.GridResult
		if err := json.Unmarshal(data, &res); err != nil {
			return outcome{}, fmt.Errorf("parse grid result: %w", err)
		}
		return gridOutcome(&res), nil
	}
	var res sweep.BisectResult
	if err := json.Unmarshal(data, &res); err != nil {
		return outcome{}, fmt.Errorf("parse bisect result: %w", err)
	}
	return bisectOutcome(&res), nil
}
