package sweep

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/gossipkit/noisyrumor/internal/core"
	"github.com/gossipkit/noisyrumor/internal/model"
	"github.com/gossipkit/noisyrumor/internal/noise"
	"github.com/gossipkit/noisyrumor/internal/rng"
)

// chaosGrid runs through the shared law cache too, so the shard merge
// covers quantized journals.
func chaosGrid() Grid {
	g := testGrid()
	g.LawQuant = 1e-3
	return g
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// tornWriter is a journal append handle whose first fails writes are
// torn: each lands half its bytes on disk, then fails, as a full disk
// or a write cut short would leave the file. Every other call goes to
// the real handle.
type tornWriter struct {
	io.WriteCloser
	fails int
}

func (w *tornWriter) Write(p []byte) (int, error) {
	if w.fails == 0 {
		return w.WriteCloser.Write(p)
	}
	w.fails--
	n, _ := w.WriteCloser.Write(p[:len(p)/2])
	return n, errors.New("chaos: torn write")
}

// panicAt returns a trial function that panics on the (point, trial)
// pairs fail picks and runs the real trial everywhere else.
func panicAt(fail func(point, trial int) bool) func(Point, *noise.Matrix, []int64, int, *rng.Rand, *core.CensusRunner, *model.Metrics) trialOut {
	return func(p Point, nm *noise.Matrix, counts []int64, t int, r *rng.Rand, cr *core.CensusRunner, mm *model.Metrics) trialOut {
		if fail(p.Index, t) {
			panic("chaos: trial blew up")
		}
		return runTrial(p, nm, counts, t, r, cr, mm)
	}
}

// TestChaosShardedGridMergeByteIdentical is the headline robustness
// contract: two shard runs, one of whose journals a simulated crash
// then tears mid-entry, must — after salvage, a re-run and a strict
// merge — produce a checkpoint byte-identical to the single-host run.
// At 1 and 8 workers.
func TestChaosShardedGridMergeByteIdentical(t *testing.T) {
	g := chaosGrid()
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	refRes, err := Runner{Seed: 7, Workers: 4, Checkpoint: refPath}.RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := mustRead(t, refPath)

	for _, workers := range []int{1, 8} {
		shardPaths := []string{
			filepath.Join(dir, "w"+string(rune('0'+workers))+"-shard0.json"),
			filepath.Join(dir, "w"+string(rune('0'+workers))+"-shard1.json"),
		}
		for i, path := range shardPaths {
			res, err := Runner{
				Seed: 7, Workers: workers, Checkpoint: path,
				Shard: Shard{Index: i, Of: 2},
			}.RunGrid(g)
			if err != nil {
				t.Fatalf("workers=%d shard %d: %v", workers, i, err)
			}
			if len(res.Quarantined) != 0 {
				t.Fatalf("workers=%d shard %d quarantined %v", workers, i, res.Quarantined)
			}
		}

		// Crash shard 1 mid-write: tear its final journal line, then
		// re-run the shard. Salvage must drop exactly the torn point and
		// the re-run recompute it.
		data := mustRead(t, shardPaths[1])
		last := bytes.LastIndexByte(data[:len(data)-1], '\n')
		if err := os.WriteFile(shardPaths[1], data[:last+1+(len(data)-last)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Runner{
			Seed: 7, Workers: workers, Checkpoint: shardPaths[1],
			Shard: Shard{Index: 1, Of: 2},
		}.RunGrid(g)
		if err != nil {
			t.Fatalf("workers=%d shard 1 re-run: %v", workers, err)
		}
		if res.Salvaged != 1 {
			t.Fatalf("workers=%d shard 1 re-run salvaged %d, want exactly the torn entry", workers, res.Salvaged)
		}

		mergedPath := filepath.Join(dir, "merged-w"+string(rune('0'+workers))+".json")
		rep, err := Merge(mergedPath, false, shardPaths[0], shardPaths[1])
		if err != nil {
			t.Fatalf("workers=%d merge: %v", workers, err)
		}
		if !rep.Complete() || rep.Points != len(refRes.Points) {
			t.Fatalf("workers=%d merge report incomplete: %+v", workers, rep)
		}
		if !bytes.Equal(mustRead(t, mergedPath), refBytes) {
			t.Fatalf("workers=%d: merged shard checkpoints differ from the single-host journal", workers)
		}

		// A single host resumes the merged journal seamlessly: every
		// point is already present, the result matches the reference,
		// and the file is untouched.
		resumed, err := Runner{Seed: 7, Workers: workers, Checkpoint: mergedPath}.RunGrid(g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(refRes, resumed) {
			t.Fatalf("workers=%d: resume from merged journal differs from the reference", workers)
		}
		if !bytes.Equal(mustRead(t, mergedPath), refBytes) {
			t.Fatalf("workers=%d: resume modified the merged journal", workers)
		}
	}
}

// TestChaosTornAppendCompacts: appends that tear mid-line and fail are
// retried, and close compacts the torn fragments away, leaving the
// fault-free journal byte for byte.
func TestChaosTornAppendCompacts(t *testing.T) {
	const keys, torn = 6, 3 // torn < resilience.DefaultPolicy().Attempts
	dir := t.TempDir()
	ref := openTestCheckpoint(t, filepath.Join(dir, "ref.json"))
	path := filepath.Join(dir, "torn.json")
	ck := openTestCheckpoint(t, path)
	ck.f = &tornWriter{WriteCloser: ck.f, fails: torn}
	m := NewMetrics(nil)
	r := Runner{Obs: Instrumentation{Metrics: m}}
	for k := 0; k < keys; k++ {
		if err := ref.put(k, testPointResult(k)); err != nil {
			t.Fatal(err)
		}
		if err := r.putCheckpoint(ck, k, testPointResult(k)); err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
	}
	if err := ref.close(); err != nil {
		t.Fatal(err)
	}
	refBytes := mustRead(t, ref.path)
	if bytes.Equal(mustRead(t, path), refBytes) {
		t.Fatal("torn appends left no fragment on disk; the double never tore")
	}
	if err := ck.close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustRead(t, path), refBytes) {
		t.Fatal("journal after torn appends and close differs from the fault-free bytes")
	}
	if got := m.retries.Value(); got != torn {
		t.Fatalf("sweep_retries_total = %d, want %d (one per torn append)", got, torn)
	}
}

// TestChaosScalingShardMerge covers the scaling mode's shard custody:
// shards carry no fit (it belongs to the merged curve), the merged
// journal is byte-identical to single-host, and the post-merge resume
// recovers the full fit.
func TestChaosScalingShardMerge(t *testing.T) {
	s := Scaling{
		Matrix: "uniform", K: 2, ChannelEps: 0.1, Delta: 0.3,
		Ns: []int64{1000, 10_000, 100_000, 1_000_000}, Trials: 4,
	}
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	refRes, err := Runner{Seed: 3, Workers: 2, Checkpoint: refPath}.RunScaling(s)
	if err != nil {
		t.Fatal(err)
	}
	shardPaths := []string{filepath.Join(dir, "s0.json"), filepath.Join(dir, "s1.json")}
	for i, path := range shardPaths {
		res, err := Runner{
			Seed: 3, Workers: 2, Checkpoint: path,
			Shard: Shard{Index: i, Of: 2},
		}.RunScaling(s)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if res.Fit.Slope != 0 || res.Fit.R2 != 0 {
			t.Fatalf("shard %d computed a fit %+v; the fit belongs to the merged curve", i, res.Fit)
		}
		if len(res.Points) != 2 {
			t.Fatalf("shard %d holds %d points, want its 2 residues", i, len(res.Points))
		}
	}
	mergedPath := filepath.Join(dir, "merged.json")
	rep, err := Merge(mergedPath, false, shardPaths[1], shardPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("merge incomplete: %+v", rep)
	}
	if !bytes.Equal(mustRead(t, mergedPath), mustRead(t, refPath)) {
		t.Fatal("merged scaling journal differs from single-host bytes")
	}
	resumed, err := Runner{Seed: 3, Workers: 2, Checkpoint: mergedPath}.RunScaling(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refRes, resumed) {
		t.Fatal("post-merge resume did not recover the single-host scaling result")
	}
}

// TestChaosBisectShardCustodyMerge: every shard of a bisection
// computes the full eval sequence but persists only its residues;
// merging the custody slices rebuilds the single-host journal.
func TestChaosBisectShardCustodyMerge(t *testing.T) {
	b := testBisect(40)
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	refRes, err := Runner{Seed: 21, Workers: 2, Checkpoint: refPath}.RunBisect(b)
	if err != nil {
		t.Fatal(err)
	}
	shardPaths := []string{filepath.Join(dir, "b0.json"), filepath.Join(dir, "b1.json")}
	for i, path := range shardPaths {
		res, err := Runner{
			Seed: 21, Workers: 2, Checkpoint: path,
			Shard: Shard{Index: i, Of: 2},
		}.RunBisect(b)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		// The search itself is identical on every shard — only custody of
		// the persisted evaluations differs.
		if res.Critical != refRes.Critical {
			t.Fatalf("shard %d located ε* %v, reference %v", i, res.Critical, refRes.Critical)
		}
	}
	mergedPath := filepath.Join(dir, "merged.json")
	if _, err := Merge(mergedPath, false, shardPaths[0], shardPaths[1]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustRead(t, mergedPath), mustRead(t, refPath)) {
		t.Fatal("merged bisect journal differs from single-host bytes")
	}
}

// TestChaosQuarantineContainsPermanentFault: a panic in one trial
// quarantines only its point, at once — the run finishes, the
// Permanent record lands in the checkpoint — and a resume with a
// healthy trial recomputes the point, converging to the reference
// result and journal bytes.
func TestChaosQuarantineContainsPermanentFault(t *testing.T) {
	g := testGrid()
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	refRes, err := Runner{Seed: 7, Workers: 4, Checkpoint: refPath}.RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ck.json")
	res, err := Runner{
		Seed: 7, Workers: 4, Checkpoint: path,
		trial: panicAt(func(p, t int) bool { return p == 3 && t == 2 }),
	}.RunGrid(g)
	if err != nil {
		t.Fatalf("a panicking trial must quarantine its point, not abort: %v", err)
	}
	if !reflect.DeepEqual(res.Quarantined, []int{3}) {
		t.Fatalf("quarantined %v, want exactly point 3", res.Quarantined)
	}
	want := PointError{Trial: 2, Permanent: true, Msg: "sweep: point 3 trial 2 panicked: chaos: trial blew up"}
	if pr := res.Points[3]; pr.Error == nil || *pr.Error != want {
		t.Fatalf("quarantine record %+v, want %+v", pr.Error, want)
	}
	if pr := res.Points[3]; pr.Trials != 0 || pr.Successes != 0 {
		t.Fatalf("quarantined point carries statistics %+v; they must be zeroed", pr)
	}
	// Healthy resume: the quarantine record reads as a miss, point 3 is
	// recomputed, and both result and journal converge to reference.
	resumed, err := Runner{Seed: 7, Workers: 4, Checkpoint: path}.RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refRes, resumed) {
		t.Fatal("resume after quarantine differs from the reference")
	}
	if !bytes.Equal(mustRead(t, path), mustRead(t, refPath)) {
		t.Fatal("journal after quarantine resume differs from reference bytes")
	}
}

// TestChaosBreakerAbortsSystemicFailure: when every trial panics, the
// breaker aborts the run after breakAfter consecutive quarantines —
// the last of testGrid's points — instead of quarantining the whole
// sweep.
func TestChaosBreakerAbortsSystemicFailure(t *testing.T) {
	g := testGrid()
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != breakAfter {
		t.Fatalf("testGrid has %d points; the breaker test needs exactly breakAfter = %d", len(pts), breakAfter)
	}
	_, err = Runner{Seed: 7, Workers: 2, trial: panicAt(func(int, int) bool { return true })}.RunGrid(g)
	if err == nil || !strings.Contains(err.Error(), "breaker") || !strings.Contains(err.Error(), "point 7") {
		t.Fatalf("systemic failure returned %v, want a breaker abort at point 7", err)
	}
}

// TestChaosBisectQuarantineAborts: bisection cannot step past a failed
// evaluation — a quarantined eval is a loud abort, with the record
// persisted for the re-run.
func TestChaosBisectQuarantineAborts(t *testing.T) {
	b := testBisect(40)
	_, err := Runner{
		Seed: 21, Workers: 2,
		trial: panicAt(func(p, t int) bool { return p == 0 && t == 0 }),
	}.RunBisect(b)
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("quarantined bisect eval returned %v, want an abort naming the quarantine", err)
	}
}
