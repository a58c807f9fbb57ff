package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// testGrid is a small but non-trivial grid: two matrices, a ×2 ε axis
// and a ×2 δ axis on the census engine.
func testGrid() Grid {
	return Grid{
		Matrices:   []string{"uniform", "binary"},
		Ks:         []int{2},
		ChannelEps: []float64{0.15, 0.35},
		Deltas:     []float64{0.1, 0.3},
		Ns:         []int64{3000},
		ProtoEps:   0.3,
		Trials:     6,
	}
}

func TestGridPointsEnumeration(t *testing.T) {
	g := testGrid()
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2*2*2 {
		t.Fatalf("enumerated %d points, want 8", len(pts))
	}
	for i, p := range pts {
		if p.Index != i {
			t.Fatalf("point %d has index %d", i, p.Index)
		}
		if p.Params.Epsilon != 0.3 {
			t.Fatalf("point %d: protocol ε %v, want the pinned 0.3", i, p.Params.Epsilon)
		}
	}
	// Per-point protocol ε when not pinned.
	g.ProtoEps = 0
	pts, err = g.Points()
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Params.Epsilon != pts[0].ChannelEps {
		t.Fatalf("unpinned grid: protocol ε %v, want channel ε %v", pts[0].Params.Epsilon, pts[0].ChannelEps)
	}
	if _, err := (Grid{}).Points(); err == nil {
		t.Fatal("empty grid accepted")
	}
	g.Trials = 0
	if _, err := g.Points(); err == nil {
		t.Fatal("zero-trial grid accepted")
	}
}

// TestGridGoldenAcrossWorkerCounts is the sweep determinism contract:
// the full grid result must be bitwise identical whether trials run
// on 1, 4 or 8 workers. Runs under -race in CI, so it also proves the
// trial fan-out is data-race-free.
func TestGridGoldenAcrossWorkerCounts(t *testing.T) {
	g := testGrid()
	var ref *GridResult
	for _, workers := range []int{1, 4, 8} {
		res, err := Runner{Seed: 99, Workers: workers}.RunGrid(g)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("grid result differs between 1 and %d workers:\n%+v\nvs\n%+v", workers, ref, res)
		}
	}
	// And a different seed must actually change something.
	other, err := Runner{Seed: 100, Workers: 4}.RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ref, other) {
		t.Fatal("seeds 99 and 100 produced identical grids; the seed is not wired through")
	}
}

// TestCheckpointResumeRoundTrip interrupts a grid mid-flight (by
// erasing the second half of a completed checkpoint) and resumes it:
// the resumed result must equal both the checkpointed first run and
// an uncheckpointed reference bit for bit.
func TestCheckpointResumeRoundTrip(t *testing.T) {
	g := testGrid()
	ref, err := Runner{Seed: 7, Workers: 4}.RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	first, err := Runner{Seed: 7, Workers: 4, Checkpoint: path}.RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, first) {
		t.Fatal("checkpointed run differs from uncheckpointed reference")
	}
	// Simulate an interruption after half the points: keep the header
	// line and the first four entry lines of the journal.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if got := len(lines) - 1; got != 9 { // header + 8 entries (+ empty tail slice)
		t.Fatalf("checkpoint journal holds %d lines, want 9", got)
	}
	trunc := bytes.Join(lines[:5], nil)
	if err := os.WriteFile(path, trunc, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := Runner{Seed: 7, Workers: 2, Checkpoint: path}.RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, resumed) {
		t.Fatal("resumed run differs from the uninterrupted reference")
	}
	// The resumed journal must land on the canonical single-host bytes.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Fatal("resumed journal differs from the uninterrupted journal byte for byte")
	}
	// A different seed must refuse the stale checkpoint rather than
	// silently mixing streams.
	if _, err := (Runner{Seed: 8, Checkpoint: path}).RunGrid(g); err == nil {
		t.Fatal("checkpoint from another seed accepted")
	}
	// So must a different spec.
	g2 := g
	g2.Trials++
	if _, err := (Runner{Seed: 7, Checkpoint: path}).RunGrid(g2); err == nil {
		t.Fatal("checkpoint from another spec accepted")
	}
	// And a different Wilson quantile: the stored intervals (and, in
	// the bisect mode, the early-stopping trial counts) were computed
	// at the old z, so mixing would break resume equality silently.
	if _, err := (Runner{Seed: 7, Z: 3.0, Checkpoint: path}).RunGrid(g); err == nil {
		t.Fatal("checkpoint from another confidence level accepted")
	}
}

func TestInitialCounts(t *testing.T) {
	counts, err := InitialCounts(1000, 3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	if total != 1000 {
		t.Fatalf("biased start sums to %d, want the full population", total)
	}
	if lead := counts[0] - counts[1]; lead < 100 || lead > 101 {
		t.Fatalf("opinion-0 lead %d, want ≈ δ·n = 100", lead)
	}
	counts, err = InitialCounts(1000, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 1 || counts[1] != 0 || counts[2] != 0 {
		t.Fatalf("rumor start %v, want a single opinion-0 source", counts)
	}
	if _, err := InitialCounts(1000, 3, 1.5); err == nil {
		t.Fatal("δ > 1 accepted")
	}
}

func TestPerNodeCrossCheckEngine(t *testing.T) {
	// The same point on the census engine and on per-node process B
	// must both run; they are different samplers of the same law, so
	// only coarse agreement is asserted (both succeed at a benign ε).
	for _, engine := range []string{"census", "B"} {
		g := Grid{
			Matrices: []string{"uniform"}, Ks: []int{2}, ChannelEps: []float64{0.4},
			Deltas: []float64{0.3}, Ns: []int64{400}, Trials: 5, Engine: engine,
		}
		grid, err := Runner{Seed: 11, Workers: 2}.RunGrid(g)
		if err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}
		res := grid.Points[0]
		if res.SuccessRate < 0.8 {
			t.Fatalf("engine %s: success %v at a benign ε, want ≥ 0.8", engine, res.SuccessRate)
		}
		if engine == "B" && res.ErrorBudget != 0 {
			t.Fatalf("per-node engine reported truncation budget %v", res.ErrorBudget)
		}
		if engine == "census" && res.ErrorBudget <= 0 {
			t.Fatal("census point reported zero truncation budget; the wiring is broken")
		}
	}
}

func TestDecades(t *testing.T) {
	got := Decades(3, 6)
	want := []int64{1000, 10_000, 100_000, 1_000_000}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Decades(3,6) = %v, want %v", got, want)
	}
	if Decades(5, 3) != nil || Decades(0, 19) != nil {
		t.Fatal("invalid decade ranges accepted")
	}
}

// TestRunRejectsBadSpecBeforeCheckpoint: a spec whose matrix, initial
// census, schedule or engine does not resolve fails Validate and its
// Run* before the checkpoint opens, so no journal carries its header.
// The bad grid point is the last one, where the point loop would first
// have met it.
func TestRunRejectsBadSpecBeforeCheckpoint(t *testing.T) {
	lastMatrix, badDelta, badQuant, badEngine := testGrid(), testGrid(), testGrid(), testGrid()
	lastMatrix.Matrices = append(lastMatrix.Matrices, "warp")
	badDelta.Deltas = append(badDelta.Deltas, 1.5)
	badQuant.LawQuant = -1
	badEngine.Engine = "Q"
	b := Bisect{Matrix: "binary", K: 2, N: 1e4, Delta: 0.05, ProtoEps: 0.4, Lo: 0.1, Hi: 0.3, Tol: 0.05, Trials: 8}
	badHi := b
	badHi.Hi = 2 // the FHK binary channel needs ε ≤ 1/2
	s := Scaling{Matrix: "uniform", K: 3, ChannelEps: 0.3, Ns: []int64{1000, 10000}, Trials: 2}
	badN := s
	badN.Ns = []int64{1000, 1}
	grid := func(g Grid) func(Runner) error {
		return func(r Runner) error { _, err := r.RunGrid(g); return err }
	}
	for _, c := range []struct {
		name     string
		validate func() error
		run      func(Runner) error
	}{
		{"grid matrix", lastMatrix.Validate, grid(lastMatrix)},
		{"grid delta", badDelta.Validate, grid(badDelta)},
		{"grid quant", badQuant.Validate, grid(badQuant)},
		{"grid engine", badEngine.Validate, grid(badEngine)},
		{"bisect hi", badHi.Validate, func(r Runner) error { _, err := r.RunBisect(badHi); return err }},
		{"scaling n", badN.Validate, func(r Runner) error { _, err := r.RunScaling(badN); return err }},
	} {
		if c.validate() == nil {
			t.Errorf("%s: Validate accepted", c.name)
		}
		path := filepath.Join(t.TempDir(), "ck.json")
		if c.run(Runner{Seed: 1, Workers: 2, Checkpoint: path}) == nil {
			t.Errorf("%s: run accepted", c.name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: the rejected run left a checkpoint (stat: %v)", c.name, err)
		}
	}
	for name, err := range map[string]error{"grid": testGrid().Validate(), "bisect": b.Validate(), "scaling": s.Validate()} {
		if err != nil {
			t.Errorf("%s: Validate rejected a good spec: %v", name, err)
		}
	}
}
