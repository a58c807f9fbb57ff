package sweep

import "fmt"

// Grid is a cartesian parameter fan: every combination of the listed
// axes becomes one Point, enumerated in a fixed order (matrix-major,
// then k, then c, then δ, then n, then channel ε) so point indices —
// and hence random streams and checkpoint keys — are stable across
// runs and worker counts.
type Grid struct {
	// Matrices lists channel families (see BuildMatrix).
	Matrices []string `json:"matrices"`
	// Ks lists opinion-space sizes.
	Ks []int `json:"ks"`
	// ChannelEps lists the channel parameter values.
	ChannelEps []float64 `json:"channel_eps"`
	// Deltas lists initial plurality biases (see InitialCounts; 0 is
	// rumor spreading).
	Deltas []float64 `json:"deltas"`
	// Ns lists population sizes.
	Ns []int64 `json:"ns"`
	// Cs lists Stage-2 constants c (each sets ℓ = ⌈c/ε²⌉ odd); empty
	// keeps the DefaultParams value.
	Cs []float64 `json:"cs,omitempty"`
	// ProtoEps pins the protocol's assumed ε (and hence the schedule)
	// across the whole grid; 0 lets each point assume its own channel
	// ε. Threshold maps pin it — the instrument varies the channel
	// under a fixed protocol.
	ProtoEps float64 `json:"proto_eps,omitempty"`
	// Trials is the per-point trial budget.
	Trials int `json:"trials"`
	// Engine selects the trial engine for every point (see
	// Point.Engine).
	Engine string `json:"engine,omitempty"`
	// LawQuant is the census engine's Stage-2 law quantization step η
	// for every point (0 = exact; see core.Params.LawQuant). Part of
	// the checkpoint identity.
	LawQuant float64 `json:"law_quant,omitempty"`
	// CensusTol overrides the census engine's truncation tolerance
	// for every point (0 = default; see core.Params.CensusTol).
	CensusTol float64 `json:"census_tol,omitempty"`
}

// GridResult is an evaluated grid, points in enumeration order. A
// sharded run carries only the shard's own points (Shard records
// which); the full result is recovered by merging the shard
// checkpoints (see Merge).
type GridResult struct {
	Points []PointResult `json:"points"`
	// ErrorBudget is the summed approximation budget of every trial of
	// every point — the union-bound probability that any number in the
	// result diverged from exact process P.
	ErrorBudget float64 `json:"error_budget"`
	// QuantBudget is the quantization leg of ErrorBudget: the summed
	// law-level certificates of every quantized phase (zero for exact
	// sweeps).
	QuantBudget float64 `json:"quant_budget,omitempty"`
	// Shard is the slice this run evaluated (nil = the whole grid).
	Shard *Shard `json:"shard,omitempty"`
	// Quarantined lists point indices skipped because a trial panicked
	// (their PointResult carries the record); Salvaged counts damaged
	// checkpoint lines dropped and recomputed on resume.
	Quarantined []int `json:"quarantined,omitempty"`
	Salvaged    int   `json:"salvaged,omitempty"`
}

// Points enumerates the grid in its deterministic order.
func (g Grid) Points() ([]Point, error) {
	if len(g.Matrices) == 0 || len(g.Ks) == 0 || len(g.ChannelEps) == 0 ||
		len(g.Deltas) == 0 || len(g.Ns) == 0 {
		return nil, fmt.Errorf("grid needs at least one matrix, k, ε, δ and n")
	}
	if g.Trials < 1 {
		return nil, fmt.Errorf("grid needs trials ≥ 1, got %d", g.Trials)
	}
	cs := g.Cs
	if len(cs) == 0 {
		cs = []float64{0}
	}
	var pts []Point
	for _, m := range g.Matrices {
		for _, k := range g.Ks {
			for _, c := range cs {
				for _, d := range g.Deltas {
					for _, n := range g.Ns {
						for _, eps := range g.ChannelEps {
							proto := g.ProtoEps
							if proto == 0 {
								proto = eps
							}
							params := defaultPointParams(proto, c, g.LawQuant, g.CensusTol)
							pts = append(pts, Point{
								Index:      len(pts),
								Matrix:     m,
								K:          k,
								ChannelEps: eps,
								Delta:      d,
								N:          n,
								Engine:     g.Engine,
								Trials:     g.Trials,
								Params:     params,
							})
						}
					}
				}
			}
		}
	}
	return pts, nil
}

// Validate reports the first error RunGrid would meet before its first
// trial: an empty axis or trial budget, or a point whose matrix,
// initial census, schedule or engine does not resolve (see
// checkPoints). It runs no trial and touches no file, so a caller can
// check a spec before it opens trace sinks or journals of its own;
// RunGrid calls it before it opens the checkpoint.
func (g Grid) Validate() error {
	_, err := g.resolve()
	return err
}

// resolve enumerates the grid's points and checks them.
func (g Grid) resolve() ([]Point, error) {
	pts, err := g.Points()
	if err != nil {
		return nil, err
	}
	return pts, checkPoints(pts)
}

// RunGrid evaluates every grid point the runner's shard owns. With
// Runner.Checkpoint set, each completed point is persisted and a
// compatible existing file resumes where it left off; the final result
// is bit-identical either way (every point is a pure function of the
// spec, the seed and its index). A point with a panicking trial is
// quarantined — recorded and skipped, the run continues — unless
// breakAfter consecutive quarantines trip the breaker, which aborts a
// systemically failing run.
func (r Runner) RunGrid(g Grid) (*GridResult, error) {
	if err := r.Shard.Validate(); err != nil {
		return nil, err
	}
	pts, err := g.resolve()
	if err != nil {
		return nil, err
	}
	ck, err := r.openCheckpoint("grid", g)
	if err != nil {
		return nil, err
	}
	defer ck.abandon()
	res := &GridResult{Shard: r.Shard.ptr(), Salvaged: ck.salvagedCount()}
	err = r.runPoints(pts, ck, func(p Point) string { return fmt.Sprintf("grid aborted at point %d", p.Index) },
		func(p Point, pr PointResult) {
			if pr.Error != nil {
				res.Quarantined = append(res.Quarantined, p.Index)
			}
			res.Points = append(res.Points, pr)
			res.ErrorBudget += pr.ErrorBudget
			res.QuantBudget += pr.QuantBudget
		})
	if err != nil {
		return nil, err
	}
	if err := ck.close(); err != nil {
		return nil, err
	}
	return res, nil
}
