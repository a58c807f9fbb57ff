package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/gossipkit/noisyrumor/internal/core"
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

// writeTestJournal writes a complete journal of keys entries through
// put and close and returns its bytes.
func writeTestJournal(t testing.TB, path string, keys int) []byte {
	t.Helper()
	ck, err := openCheckpointFile(path, "grid", 7, DefaultZ, Shard{}, ckTestSpec{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
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
	return data
}

// TestCheckpointTornAtEveryOffset: a journal cut at any byte offset —
// wherever a crash stopped the last write — keeps exactly the entries
// whose JSON it holds in full, reports a partial line as one salvaged
// entry, and resumes onto canonical bytes. A cut inside the header is
// an error naming it; a header that lost only its newline opens empty.
func TestCheckpointTornAtEveryOffset(t *testing.T) {
	const keys = 4
	dir := t.TempDir()
	data := writeTestJournal(t, filepath.Join(dir, "full.json"), keys)
	lines := bytes.SplitAfter(data, []byte("\n"))[:keys+1]
	ends := make([]int, len(lines)) // ends[i]: offset just past line i's JSON
	off := 0
	for i, line := range lines {
		off += len(line)
		ends[i] = off - 1
	}
	path := filepath.Join(dir, "torn.json")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cf, err := readCheckpointFile(path)
		if cut < ends[0] {
			if err == nil || !strings.Contains(err.Error(), "header") {
				t.Fatalf("cut %d inside the header: error %v, want an unreadable header", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		kept, partial := 0, false
		for k := 0; k < keys; k++ {
			start := ends[k] + 1
			switch {
			case cut >= ends[k+1]:
				kept++
			case cut > start:
				partial = true
			}
		}
		if len(cf.entries) != kept {
			t.Fatalf("cut %d: kept %d entries, want the %d complete ones", cut, len(cf.entries), kept)
		}
		for k := 0; k < kept; k++ {
			want := bytes.TrimSuffix(lines[k+1], []byte("\n"))
			var got bytes.Buffer
			writeEntryLine(&got, cf.entries[k])
			if !bytes.Equal(bytes.TrimSuffix(got.Bytes(), []byte("\n")), want) {
				t.Fatalf("cut %d: entry %d changed in salvage", cut, k)
			}
		}
		wantSalvaged := 0
		if partial {
			wantSalvaged = 1
		}
		if cf.salvaged != wantSalvaged {
			t.Fatalf("cut %d: salvaged %d, want %d", cut, cf.salvaged, wantSalvaged)
		}
		// Resume normalizes the file: header and the kept lines.
		ck, err := openCheckpointFile(path, "grid", 7, DefaultZ, Shard{}, ckTestSpec{Name: "x"})
		if err != nil {
			t.Fatalf("cut %d: resume: %v", cut, err)
		}
		if err := ck.close(); err != nil {
			t.Fatal(err)
		}
		if got, want := mustRead(t, path), bytes.Join(lines[:kept+1], nil); !bytes.Equal(got, want) {
			t.Fatalf("cut %d: resumed journal is not the canonical kept prefix:\n%q\nwant\n%q", cut, got, want)
		}
	}
}

// TestEntryLineIsMarshaledEntry pins the entry line's frame: for
// generated results, writeEntryLine writes json.Marshal(checkpointEntry)
// and a newline, byte for byte, and reading the line back yields the
// key, CRC and result bytes json.Unmarshal finds in it. The keys span
// one to four digits, and quarantine messages carry what JSON escapes:
// HTML's <, > and &, quotes, backslashes, control bytes, U+2028 and
// invalid UTF-8.
func TestEntryLineIsMarshaledEntry(t *testing.T) {
	dir := t.TempDir()
	ck := openTestCheckpoint(t, filepath.Join(dir, "header.json"))
	if err := ck.close(); err != nil {
		t.Fatal(err)
	}
	header := mustRead(t, filepath.Join(dir, "header.json"))
	msgs := []string{
		"point 3 trial 1 panicked: <nil> && a > b",
		`quote " and backslash \ and \"both\"`,
		"control \x00\x01\x07\b\f\t\n\r\x1b\x1f\x7f bytes",
		"separators \u2028 and \u2029",
		"invalid UTF-8 \xff\xfe \xc3\x28 \xed\xa0\x80 end \xe2\x82",
	}
	path := filepath.Join(dir, "line.json")
	for _, key := range []int{0, 9, 10, 1343} {
		clean := testPointResult(key)
		clean.Point.Params = core.DefaultParams(0.3)
		clean.WilsonLo, clean.WilsonHi = 0.1+float64(key)/7, 0.9-1e-17*float64(key)
		clean.MeanRounds = 1 / 3.0 * float64(key+1)
		clean.ErrorBudget = 6.5e-300 * float64(key+1)
		results := []PointResult{clean}
		for i, msg := range msgs {
			results = append(results, PointResult{Point: clean.Point,
				Error: &PointError{Trial: i, Permanent: i%2 == 0, Msg: msg}})
		}
		for i, pr := range results {
			data, err := json.Marshal(pr)
			if err != nil {
				t.Fatal(err)
			}
			ent := checkpointEntry{Key: key, CRC: entryCRC(data), Result: data}
			var line bytes.Buffer
			writeEntryLine(&line, ent)
			want, err := json.Marshal(ent)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			if !bytes.Equal(line.Bytes(), want) {
				t.Fatalf("key %d result %d: writeEntryLine wrote\n%q\njson.Marshal writes\n%q", key, i, line.Bytes(), want)
			}
			var dec checkpointEntry
			if err := json.Unmarshal(line.Bytes(), &dec); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(append([]byte{}, header...), line.Bytes()...), 0o644); err != nil {
				t.Fatal(err)
			}
			cf, err := readCheckpointFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := cf.entries[key]
			if len(cf.entries) != 1 || !ok || cf.salvaged != 0 {
				t.Fatalf("key %d result %d: read %d entries (salvaged %d), want the one line", key, i, len(cf.entries), cf.salvaged)
			}
			if got.Key != dec.Key || got.CRC != dec.CRC || !bytes.Equal(got.Result, dec.Result) {
				t.Fatalf("key %d result %d: read {%d %s %q}, json.Unmarshal reads {%d %s %q}",
					key, i, got.Key, got.CRC, got.Result, dec.Key, dec.CRC, dec.Result)
			}
		}
	}
}

// FuzzCheckpointJournal: on arbitrary bytes, reading a journal never
// panics, and every entry it keeps re-frames to exactly a whole line of
// the journal, carries a CRC that verifies and holds the result of the
// point its key names. The seeds are a complete journal, the same
// journal torn mid-entry and with a flipped payload byte, and a header
// alone; the committed corpus adds the frame's edges (a leading-zero or
// signed key, an upper-case CRC, a space after a colon, a CRLF ending,
// a result holding the text `","result":`, a missing closing brace).
func FuzzCheckpointJournal(f *testing.F) {
	data := writeTestJournal(f, filepath.Join(f.TempDir(), "seed.json"), 3)
	f.Add(data)
	f.Add(data[:len(data)-7])
	f.Add(bytes.Replace(data, []byte(`"successes":1`), []byte(`"successes":2`), 1))
	f.Add(data[:bytes.IndexByte(data, '\n')+1])
	f.Fuzz(func(t *testing.T, journal []byte) {
		path := filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(path, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		cf, err := readCheckpointFile(path)
		if err != nil {
			return // a header that names no v2 journal is the one fatal case
		}
		for key, ent := range cf.entries {
			if ent.Key != key || ent.CRC != entryCRC(ent.Result) {
				t.Fatalf("kept entry %d (key %d) fails its CRC %s", key, ent.Key, ent.CRC)
			}
			var line bytes.Buffer
			writeEntryLine(&line, ent)
			framed := append([]byte{'\n'}, line.Bytes()...)
			if !bytes.Contains(journal, framed) && !bytes.HasSuffix(journal, framed[:len(framed)-1]) {
				t.Fatalf("kept entry %d re-frames to %q, which is no line of the journal", key, line.Bytes())
			}
			var pr PointResult
			if err := json.Unmarshal(ent.Result, &pr); err != nil || pr.Point.Index != key {
				t.Fatalf("kept entry %d holds the result of point %d (decode error %v)", key, pr.Point.Index, err)
			}
		}
		if cf.salvaged < 0 || cf.salvaged > bytes.Count(journal, []byte("\n")) {
			t.Fatalf("salvaged %d of at most %d entry lines", cf.salvaged, bytes.Count(journal, []byte("\n")))
		}
	})
}
