package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ckTestSpec is an arbitrary identity payload for direct journal tests.
type ckTestSpec struct {
	Name string `json:"name"`
}

func openTestCheckpoint(t *testing.T, path string) *checkpoint {
	t.Helper()
	ck, err := openCheckpointFile(path, "grid", 7, DefaultZ, Shard{}, ckTestSpec{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

func testPointResult(key int) PointResult {
	return PointResult{
		Point:       Point{Index: key, Matrix: "uniform", K: 2, Trials: 4},
		Trials:      4,
		Successes:   key % 5,
		SuccessRate: float64(key%5) / 4,
	}
}

// TestCheckpointSalvageTruncatedEntry is the satellite regression for
// the crash-safety contract: a journal whose final entry line was torn
// mid-JSON (the classic power-cut tail) must open, keep every intact
// entry, and report exactly the damaged one as salvaged.
func TestCheckpointSalvageTruncatedEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	ck := openTestCheckpoint(t, path)
	for k := 0; k < 4; k++ {
		if err := ck.put(k, testPointResult(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last entry mid-JSON: drop the trailing newline and half
	// the final line.
	last := bytes.LastIndexByte(data[:len(data)-1], '\n')
	torn := data[:last+1+(len(data)-last)/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	re := openTestCheckpoint(t, path)
	defer re.abandon()
	if re.salvagedCount() != 1 {
		t.Fatalf("salvaged %d entries, want exactly the torn one", re.salvagedCount())
	}
	for k := 0; k < 3; k++ {
		pr, ok := re.get(k)
		if !ok {
			t.Fatalf("intact point %d lost in salvage", k)
		}
		if pr.Successes != testPointResult(k).Successes {
			t.Fatalf("point %d corrupted by salvage: %+v", k, pr)
		}
	}
	if _, ok := re.get(3); ok {
		t.Fatal("torn point 3 served instead of being dropped for recompute")
	}
	// Salvage normalizes the file back to canonical bytes: the original
	// journal minus the torn entry.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data[:last+1]) {
		t.Fatal("salvaged journal is not the canonical intact prefix")
	}
}

// TestCheckpointSalvageCRCMismatch: a bit-flip inside an entry's
// result payload — valid JSON, wrong bytes — must be caught by the CRC
// and dropped, not served.
func TestCheckpointSalvageCRCMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	ck := openTestCheckpoint(t, path)
	for k := 0; k < 3; k++ {
		if err := ck.put(k, testPointResult(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside entry 1's success count without breaking the
	// JSON: "successes":1 -> "successes":2.
	mut := bytes.Replace(data, []byte(`"successes":1`), []byte(`"successes":2`), 1)
	if bytes.Equal(mut, data) {
		t.Fatal("test setup: expected payload not found")
	}
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	re := openTestCheckpoint(t, path)
	defer re.abandon()
	if re.salvagedCount() != 1 {
		t.Fatalf("salvaged %d entries, want 1 (the CRC mismatch)", re.salvagedCount())
	}
	if _, ok := re.get(1); ok {
		t.Fatal("CRC-mismatched entry served")
	}
	if _, ok := re.get(2); !ok {
		t.Fatal("intact entry after the damaged one lost")
	}
}

// TestCheckpointCorruptHeaderError is the satellite regression for the
// raw-parse-error fix: an unreadable header must fail with the path,
// the byte offset, and a recovery instruction — not a bare
// json.SyntaxError.
func TestCheckpointCorruptHeaderError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(path, []byte(`{"schema":"noisyrumor-sweep-checkp`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := openCheckpointFile(path, "grid", 7, DefaultZ, Shard{}, ckTestSpec{})
	if err == nil {
		t.Fatal("truncated-mid-JSON header accepted")
	}
	msg := err.Error()
	for _, want := range []string{path, "byte 0", "delete"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("header error %q should mention %q", msg, want)
		}
	}
}

// TestCheckpointUnfixablePathFailsAtOnce: a checkpoint path whose
// directory is missing, or that names a directory, cannot open on any
// attempt. The run must abort at once with an error naming the path,
// not spend the retry budget (wall-clock backoff in cmd/sweep) on it.
func TestCheckpointUnfixablePathFailsAtOnce(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ name, path string }{
		{"missing directory", filepath.Join(dir, "missing", "ck.json")},
		{"is a directory", dir},
	} {
		m := NewMetrics(nil)
		_, err := Runner{Seed: 7, Checkpoint: tc.path, Obs: Instrumentation{Metrics: m}}.RunGrid(testGrid())
		if err == nil || !strings.Contains(err.Error(), tc.path) {
			t.Fatalf("%s: error %v, want one naming %s", tc.name, err, tc.path)
		}
		if got := m.retries.Value(); got != 0 {
			t.Fatalf("%s: %d retries (%v), want an immediate abort", tc.name, got, err)
		}
	}
}

// TestCheckpointV1Rejected: the retired single-document format gets a
// targeted migration error, not a generic parse failure.
func TestCheckpointV1Rejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	v1 := `{"schema":"noisyrumor-sweep-checkpoint/v1","mode":"grid","seed":7,"results":{}}`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := openCheckpointFile(path, "grid", 7, DefaultZ, Shard{}, ckTestSpec{})
	if err == nil || !strings.Contains(err.Error(), "v1") {
		t.Fatalf("v1 checkpoint error %v, want a targeted v1 message", err)
	}
}

// TestCheckpointIncrementalAppend pins the O(1)-per-point write fix:
// each put appends exactly one line — the file never gets rewritten —
// so total bytes written over N points is linear, not quadratic.
func TestCheckpointIncrementalAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	ck := openTestCheckpoint(t, path)
	defer ck.abandon()
	sizes := []int64{fileSize(t, path)}
	const n = 16
	for k := 0; k < n; k++ {
		if err := ck.put(k, testPointResult(k)); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fileSize(t, path))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(data, []byte("\n")); got != n+1 {
		t.Fatalf("journal has %d lines after %d puts, want header + %d entries", got, n, n)
	}
	// Every put grows the file by roughly one entry line. If put ever
	// regressed to rewrite-the-whole-file, late deltas would grow with
	// the entry count; pin them to a flat bound instead.
	perLine := sizes[1] - sizes[0]
	for i := 1; i < len(sizes); i++ {
		delta := sizes[i] - sizes[i-1]
		if delta <= 0 || delta > 2*perLine {
			t.Fatalf("put %d grew the file by %d bytes (first put: %d); appends must be O(1), not a rewrite", i-1, delta, perLine)
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestCheckpointShardIdentity: shard membership is part of checkpoint
// identity — shard 1/2 must refuse shard 0/2's journal, and the
// unsharded run must refuse both.
func TestCheckpointShardIdentity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	ck, err := openCheckpointFile(path, "grid", 7, DefaultZ, Shard{Index: 0, Of: 2}, ckTestSpec{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.put(0, testPointResult(0)); err != nil {
		t.Fatal(err)
	}
	if err := ck.close(); err != nil {
		t.Fatal(err)
	}
	if _, err := openCheckpointFile(path, "grid", 7, DefaultZ, Shard{Index: 1, Of: 2}, ckTestSpec{Name: "x"}); err == nil {
		t.Fatal("shard 1/2 resumed shard 0/2's journal")
	}
	if _, err := openCheckpointFile(path, "grid", 7, DefaultZ, Shard{}, ckTestSpec{Name: "x"}); err == nil {
		t.Fatal("unsharded run resumed a shard journal")
	}
}

// TestCheckpointShardCustody: put silently skips keys the checkpoint's
// shard does not own (bisect computes every evaluation but persists
// only its residues).
func TestCheckpointShardCustody(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	ck, err := openCheckpointFile(path, "bisect", 7, DefaultZ, Shard{Index: 1, Of: 2}, ckTestSpec{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if err := ck.put(k, testPointResult(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.close(); err != nil {
		t.Fatal(err)
	}
	re, err := openCheckpointFile(path, "bisect", 7, DefaultZ, Shard{Index: 1, Of: 2}, ckTestSpec{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.abandon()
	for k := 0; k < 4; k++ {
		_, ok := re.get(k)
		if owns := k%2 == 1; ok != owns {
			t.Fatalf("key %d stored=%v, custody says %v", k, ok, owns)
		}
	}
}
