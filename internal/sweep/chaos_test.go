package sweep

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
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

// panicAt returns a fault hook that panics on the (point, trial) pairs
// fail picks and lets the real trial run everywhere else.
func panicAt(fail func(point, trial int) bool) func(point, trial int) error {
	return func(point, trial int) error {
		if fail(point, trial) {
			panic("chaos: trial blew up")
		}
		return nil
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
	const keys, torn = 6, 3 // torn < retryAttempts
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

// sleeperFunc is a Runner.Sleeper double that hands each wait to a
// function instead of sleeping.
type sleeperFunc func(time.Duration)

func (f sleeperFunc) Sleep(d time.Duration) { f(d) }

// TestChaosBackoffJitter: the waits before the retries of a torn
// append lie in [retryBase, retryBase·3^(retryAttempts−1)], repeat
// exactly for the same seed and differ for another, since the jitter
// is drawn from a stream salted off the run seed.
func TestChaosBackoffJitter(t *testing.T) {
	dir := t.TempDir()
	waits := func(name string, seed uint64) []time.Duration {
		ck := openTestCheckpoint(t, filepath.Join(dir, name))
		defer ck.abandon()
		ck.f = &tornWriter{WriteCloser: ck.f, fails: retryAttempts - 1}
		var got []time.Duration
		r := Runner{Seed: seed, Sleeper: sleeperFunc(func(d time.Duration) { got = append(got, d) })}
		if err := r.putCheckpoint(ck, 0, testPointResult(0)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return got
	}
	a, b, c := waits("a.json", 7), waits("b.json", 7), waits("c.json", 8)
	if len(a) != retryAttempts-1 {
		t.Fatalf("%d torn appends slept %d times: %v", retryAttempts-1, len(a), a)
	}
	maxWait := retryBase
	for range retryAttempts - 1 {
		maxWait *= 3
	}
	for _, d := range slices.Concat(a, c) {
		if d < retryBase || d > maxWait {
			t.Fatalf("wait %v outside [%v, %v]", d, retryBase, maxWait)
		}
	}
	if !slices.Equal(a, b) {
		t.Fatalf("seed 7 waited %v, then %v", a, b)
	}
	if slices.Equal(a, c) {
		t.Fatalf("seeds 7 and 8 waited alike: %v", a)
	}
}

// countingFailWriter is a journal append handle whose every write
// fails, counting the writes it refused.
type countingFailWriter struct {
	io.WriteCloser
	writes int
}

func (w *countingFailWriter) Write([]byte) (int, error) {
	w.writes++
	return 0, errors.New("chaos: still flaky")
}

// TestChaosRetryBudgetExhausts: an append that fails on every attempt
// runs exactly retryAttempts times, then gives up with an error that
// reports the attempt count, keeps the transient mark and the cause in
// its chain, and follows retryAttempts−1 counted waits.
func TestChaosRetryBudgetExhausts(t *testing.T) {
	ck := openTestCheckpoint(t, filepath.Join(t.TempDir(), "flaky.json"))
	defer ck.abandon()
	w := &countingFailWriter{WriteCloser: ck.f}
	ck.f = w
	m := NewMetrics(nil)
	sleeps := 0
	r := Runner{Seed: 7, Sleeper: sleeperFunc(func(time.Duration) { sleeps++ }), Obs: Instrumentation{Metrics: m}}
	err := r.putCheckpoint(ck, 0, testPointResult(0))
	if w.writes != retryAttempts {
		t.Fatalf("%d append attempts, want %d", w.writes, retryAttempts)
	}
	if err == nil || !errors.As(err, new(transientError)) {
		t.Fatalf("exhaustion error %v must keep its transient mark", err)
	}
	if !strings.Contains(err.Error(), "4 attempts exhausted") || !strings.Contains(err.Error(), "chaos: still flaky") {
		t.Errorf("exhaustion error %q should report the attempt count and the cause", err)
	}
	if sleeps != retryAttempts-1 {
		t.Errorf("slept %d times, want %d", sleeps, retryAttempts-1)
	}
	if got := m.retries.Value(); got != retryAttempts-1 {
		t.Errorf("sweep_retries_total = %d, want %d", got, retryAttempts-1)
	}
}

// TestChaosFailedCreateLeavesNoJournal: a journal create whose header
// write fails (here the disk is full: path.tmp leads to /dev/full)
// leaves no file at path, so the retried open creates the journal and
// the run ends with the fault-free bytes. A header written in place
// would leave an empty file that the retry rejects as unreadable.
func TestChaosFailedCreateLeavesNoJournal(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("needs /dev/full:", err)
	}
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	if _, err := (Runner{Seed: 7, Workers: 2, Checkpoint: refPath}).RunGrid(testGrid()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ck.json")
	if err := os.Symlink("/dev/full", path+".tmp"); err != nil {
		t.Fatal(err)
	}
	m := NewMetrics(nil)
	fix := sleeperFunc(func(time.Duration) {
		if _, err := os.Lstat(path); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("after the failed create, %s: %v; want no file", path, err)
		}
		if err := os.Remove(path + ".tmp"); err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Error(err)
		}
	})
	_, err := Runner{Seed: 7, Workers: 2, Checkpoint: path, Sleeper: fix, Obs: Instrumentation{Metrics: m}}.RunGrid(testGrid())
	if err != nil {
		t.Fatalf("retried create: %v", err)
	}
	if got := m.retries.Value(); got != 1 {
		t.Fatalf("sweep_retries_total = %d, want 1 (the failed create)", got)
	}
	if !bytes.Equal(mustRead(t, path), mustRead(t, refPath)) {
		t.Fatal("journal after a failed create differs from the fault-free bytes")
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
		fault: panicAt(func(p, t int) bool { return p == 3 && t == 2 }),
	}.RunGrid(g)
	if err != nil {
		t.Fatalf("a panicking trial must quarantine its point, not abort: %v", err)
	}
	if !reflect.DeepEqual(res.Quarantined, []int{3}) {
		t.Fatalf("quarantined %v, want exactly point 3", res.Quarantined)
	}
	want := PointError{Trial: 2, Permanent: true, Msg: "point 3 trial 2 panicked: chaos: trial blew up"}
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
	_, err = Runner{Seed: 7, Workers: 2, fault: panicAt(func(int, int) bool { return true })}.RunGrid(g)
	if err == nil || !strings.Contains(err.Error(), "breaker") || !strings.Contains(err.Error(), "point 7") {
		t.Fatalf("systemic failure returned %v, want a breaker abort at point 7", err)
	}
}

// TestChaosBreakerStreakResets: a good point resets the quarantine
// streak, so streaks of breakAfter−1, each ended by a good point, let
// the run finish although more than breakAfter points are quarantined
// in all.
func TestChaosBreakerStreakResets(t *testing.T) {
	g := testGrid()
	g.Ns = []int64{3000, 4000}
	good := func(p int) bool { return p%breakAfter == breakAfter-1 }
	res, err := Runner{Seed: 7, Workers: 2, fault: panicAt(func(p, _ int) bool { return !good(p) })}.RunGrid(g)
	if err != nil {
		t.Fatalf("streaks shorter than breakAfter tripped the breaker: %v", err)
	}
	var want []int
	for _, pr := range res.Points {
		if !good(pr.Point.Index) {
			want = append(want, pr.Point.Index)
		}
	}
	if len(res.Points) != 2*breakAfter || !reflect.DeepEqual(res.Quarantined, want) {
		t.Fatalf("%d points, quarantined %v; want %d points, quarantined %v", len(res.Points), res.Quarantined, 2*breakAfter, want)
	}
}

// TestChaosBisectQuarantineAborts: bisection cannot step past a failed
// evaluation — a quarantined eval is a loud abort, with the record
// persisted for the re-run. The error carries no "sweep:" of its own:
// the CLI adds the only one.
func TestChaosBisectQuarantineAborts(t *testing.T) {
	b := testBisect(40)
	_, err := Runner{
		Seed: 21, Workers: 2,
		fault: panicAt(func(p, t int) bool { return p == 0 && t == 0 }),
	}.RunBisect(b)
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("quarantined bisect eval returned %v, want an abort naming the quarantine", err)
	}
	if strings.Contains(err.Error(), "sweep:") {
		t.Fatalf("bisect abort %q repeats the CLI's \"sweep:\" prefix", err)
	}
}

// failingWriter is a journal append handle whose every write fails,
// as a disk that went away mid-run would leave it.
type failingWriter struct{ io.WriteCloser }

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("chaos: disk gone") }

// goroutinesSettle waits for the goroutine count to fall back to base
// and returns the last count seen. A worker that has signalled its
// pool's WaitGroup is still counted until it has fully exited, so the
// count is polled briefly instead of read once.
func goroutinesSettle(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosNoGoroutineOutlivesRun: a run's trial pool and everything
// it started are gone when the run returns, whether it finished or
// aborted through the breaker (a quarantine streak), an unclassified
// trial error or a failing journal writer, with points still in
// flight behind the one that failed.
func TestChaosNoGoroutineOutlivesRun(t *testing.T) {
	unclassified := func(point, _ int) error {
		if point == 2 {
			return errors.New("chaos: bad knob")
		}
		return nil
	}
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		run  func() error
		want string // "" = the run must succeed
	}{
		{"grid ok", func() error { _, err := Runner{Seed: 7, Workers: 4}.RunGrid(testGrid()); return err }, ""},
		{"scaling ok", func() error { _, err := Runner{Seed: 7, Workers: 4}.RunScaling(testScaling()); return err }, ""},
		{"bisect ok", func() error { _, err := Runner{Seed: 7, Workers: 4}.RunBisect(testBisect(40)); return err }, ""},
		{"breaker", func() error {
			_, err := Runner{Seed: 7, Workers: 4, fault: panicAt(func(int, int) bool { return true })}.RunGrid(testGrid())
			return err
		}, "breaker"},
		{"unclassified trial error", func() error {
			_, err := Runner{Seed: 7, Workers: 4, fault: unclassified}.RunGrid(testGrid())
			return err
		}, "point 2 trial 0: chaos: bad knob"},
		{"failing journal", func() error {
			m := NewMetrics(nil)
			_, err := Runner{
				Seed: 7, Workers: 4, Checkpoint: filepath.Join(dir, "gone.json"), Obs: Instrumentation{Metrics: m},
				journal: func(w io.WriteCloser) io.WriteCloser { return failingWriter{w} },
			}.RunGrid(testGrid())
			if got := m.retries.Value(); got != retryAttempts-1 {
				t.Errorf("failing journal: sweep_retries_total = %d, want %d", got, retryAttempts-1)
			}
			return err
		}, "point 0 could not be persisted: 4 attempts exhausted"},
		{"bisect quarantine", func() error {
			_, err := Runner{Seed: 7, Workers: 4, fault: panicAt(func(p, t int) bool { return p == 1 })}.RunBisect(testBisect(40))
			return err
		}, "quarantined"},
	} {
		base := runtime.NumGoroutine()
		err := c.run()
		switch {
		case c.want == "" && err != nil:
			t.Fatalf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Fatalf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
		if n := goroutinesSettle(base); n > base {
			t.Fatalf("%s: %d goroutines after the run, %d before", c.name, n, base)
		}
	}
}
