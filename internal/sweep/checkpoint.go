package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"

	"github.com/gossipkit/noisyrumor/internal/obs"
	"github.com/gossipkit/noisyrumor/internal/rng"
)

// checkpointSchema versions the on-disk format: a line journal whose
// first line is the header (sweep identity) and every further line
// one CRC-protected point entry. Appending one line per completed
// point replaces v1's rewrite-the-whole-file-per-point (O(points²)
// total bytes); the widened crash window — a torn tail instead of an
// atomic rename — is bounded by the salvage path, which drops only
// damaged lines on open and recomputes them.
const checkpointSchema = "noisyrumor-sweep-checkpoint/v2"

// checkpointSchemaV1 is the retired single-document format, detected
// only to produce a targeted error.
const checkpointSchemaV1 = "noisyrumor-sweep-checkpoint/v1"

// checkpointHeader is the journal's first line: the sweep's identity
// (mode, seed, z, shard, and the marshaled spec, compared
// byte-for-byte on resume). Because each point is a pure function of
// (spec, seed, index), replaying the missing points after a resume
// reproduces the uninterrupted run exactly; because the shard slot is
// part of the identity, a shard's journal can never be resumed by a
// different shard — only merged (see Merge).
type checkpointHeader struct {
	Schema string          `json:"schema"`
	Mode   string          `json:"mode"`
	Seed   uint64          `json:"seed"`
	Z      float64         `json:"z"`
	Shard  *Shard          `json:"shard,omitempty"`
	Spec   json.RawMessage `json:"spec"`
}

// checkpointEntry is one journal line: a point result with its key
// and the CRC32 (IEEE) of the result bytes, framed as
//
//	{"key":K,"crc":"H","result":R}
//
// which is byte for byte what json.Marshal(checkpointEntry) writes: K
// in decimal, H in eight lower-case hex digits, R the result as
// json.Marshal wrote it. The reader keeps only lines of that frame
// whose H is R's CRC and whose R is the result of point K (see
// splitEntryLine); any other line is a salvage drop, not a fatal error.
type checkpointEntry struct {
	Key    int             `json:"key"`
	CRC    string          `json:"crc"`
	Result json.RawMessage `json:"result"`
}

// The literal parts of an entry line's frame, and the start of every
// result: Point and its Index are the first fields json.Marshal writes
// for a PointResult.
const (
	framePrefix = `{"key":`
	frameCRC    = `,"crc":"`
	frameResult = `","result":`
	frameSuffix = `}`
	resultStart = `{"point":{"index":`
)

func entryCRC(result []byte) string {
	const hexDigits = "0123456789abcdef"
	var h [8]byte
	crc := crc32.ChecksumIEEE(result)
	for i := len(h) - 1; i >= 0; i-- {
		h[i] = hexDigits[crc&0xf]
		crc >>= 4
	}
	return string(h[:])
}

// splitEntryLine reads one entry line by its frame, without decoding
// the result; Result aliases line. It reports false for a line the
// writer cannot have written whole: another shape (reordered fields,
// added whitespace, a CRLF ending), a key that is not canonical
// decimal, a CRC that is not the result's, or a result whose point
// index is not the key. The CRC covers only the result, so the index
// check is what catches a damaged key.
func splitEntryLine(line []byte) (checkpointEntry, bool) {
	rest, ok := bytes.CutPrefix(line, []byte(framePrefix))
	if !ok {
		return checkpointEntry{}, false
	}
	n := 0
	for n < len(rest) && '0' <= rest[n] && rest[n] <= '9' {
		n++
	}
	digits := rest[:n]
	if n == 0 || (n > 1 && digits[0] == '0') {
		return checkpointEntry{}, false
	}
	key, err := strconv.Atoi(string(digits))
	if err != nil {
		return checkpointEntry{}, false
	}
	if rest, ok = bytes.CutPrefix(rest[n:], []byte(frameCRC)); !ok || len(rest) < 8 {
		return checkpointEntry{}, false
	}
	crc := rest[:8]
	if rest, ok = bytes.CutPrefix(rest[8:], []byte(frameResult)); !ok {
		return checkpointEntry{}, false
	}
	result, ok := bytes.CutSuffix(rest, []byte(frameSuffix))
	if !ok {
		return checkpointEntry{}, false
	}
	if idx, ok := bytes.CutPrefix(result, []byte(resultStart)); !ok || len(idx) <= n ||
		!bytes.Equal(idx[:n], digits) || idx[n] != ',' {
		return checkpointEntry{}, false
	}
	h := entryCRC(result)
	if string(crc) != h {
		return checkpointEntry{}, false
	}
	return checkpointEntry{Key: key, CRC: h, Result: result}, true
}

// checkpoint persists sweep progress. A nil checkpoint (no path
// configured) is valid and does nothing.
type checkpoint struct {
	path   string
	header checkpointHeader

	// f is the append handle (an *os.File; tests substitute doubles
	// that tear writes); nil once closed.
	f       io.WriteCloser
	entries map[int]checkpointEntry
	lastKey int // largest key appended so far (-1 when empty)
	// ordered reports that the on-disk journal is canonical: strictly
	// ascending unique keys, no salvage drops, no overwrites. close()
	// compacts a non-canonical journal so completed runs always leave
	// the canonical byte sequence (the shard-merge identity rule
	// depends on it).
	ordered bool
	// salvaged counts entry lines dropped on open (torn tail, CRC
	// mismatch, garbage): points the resume will recompute.
	salvaged int
}

// checkpointFile is a parsed journal: what readCheckpointFile
// recovered, shared by resume (openCheckpointFile) and Merge.
type checkpointFile struct {
	header    checkpointHeader
	entries   map[int]checkpointEntry
	salvaged  int
	canonical bool
}

// readCheckpointFile parses the journal at path, salvaging what it
// can: damaged entry lines are dropped and counted, never fatal. Only
// an unreadable header is fatal — without it the file cannot be
// identified, so nothing can be salvaged.
func readCheckpointFile(path string) (*checkpointFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, err
		}
		return nil, classifyOpen(fmt.Errorf("read checkpoint: %w", err))
	}
	nl := bytes.IndexByte(data, '\n')
	headerLine := data
	if nl >= 0 {
		headerLine = data[:nl]
	}
	cf := &checkpointFile{entries: map[int]checkpointEntry{}}
	if err := json.Unmarshal(headerLine, &cf.header); err != nil {
		if sniffSchema(data) == checkpointSchemaV1 {
			return nil, fmt.Errorf("checkpoint %s uses the retired v1 format (one JSON document); this build reads the v2 line journal — delete the file and re-run, the sweep will recompute it", path)
		}
		return nil, fmt.Errorf("checkpoint %s: unreadable header at byte 0 (%v); without the header line the file cannot be identified, so no points can be salvaged — delete it (or restore a backup) and re-run to recompute", path, err)
	}
	if cf.header.Schema != checkpointSchema {
		return nil, fmt.Errorf("checkpoint %s has schema %q, want %q", path, cf.header.Schema, checkpointSchema)
	}
	// A file that does not end in a newline lost the end of its last
	// write, even when that line's JSON is whole. It is not canonical,
	// so a resume rewrites it before an append can land on that line.
	cf.canonical = data[len(data)-1] == '\n'
	if nl < 0 {
		// Header only, no newline: a write torn before the first entry.
		return cf, nil
	}
	lastKey := -1
	for off := nl + 1; off < len(data); {
		end := bytes.IndexByte(data[off:], '\n')
		line := data[off:]
		next := len(data)
		if end >= 0 {
			line = data[off : off+end]
			next = off + end + 1
		}
		if ent, ok := splitEntryLine(line); ok {
			if _, dup := cf.entries[ent.Key]; dup || ent.Key <= lastKey {
				cf.canonical = false // journal semantics: the later write wins
			}
			cf.entries[ent.Key] = ent
			if ent.Key > lastKey {
				lastKey = ent.Key
			}
		} else {
			// A blank line holds no point, but the writer writes none, so
			// the resume rewrites it away. Any other line is a torn or
			// corrupt entry at byte offset `off`: drop and recompute.
			// Damage is recoverable here, unlike the header.
			if len(bytes.TrimSpace(line)) > 0 {
				cf.salvaged++
			}
			cf.canonical = false
		}
		off = next
	}
	return cf, nil
}

// sniffSchema extracts the schema field from a whole-file JSON
// document (the v1 layout) or returns "".
func sniffSchema(data []byte) string {
	var doc struct {
		Schema string `json:"schema"`
	}
	if json.Unmarshal(data, &doc) == nil {
		return doc.Schema
	}
	return ""
}

// transientError marks a checkpoint I/O error that a retry may get
// past (an I/O blip, a torn append): retry runs the operation again on
// it and on no other error, so a spec mistake or a bad path aborts at
// once instead of being retried into the ground. The message and the
// Unwrap chain are the marked error's.
type transientError struct{ error }

func (e transientError) Unwrap() error { return e.error }

// classifyOpen marks a checkpoint open, read or create error
// transient, unless no retry can fix it — a missing directory, a
// denied permission, a path that names a directory or runs through a
// file — which stays unmarked so the run aborts at once.
func classifyOpen(err error) error {
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, fs.ErrPermission) ||
		errors.Is(err, syscall.EISDIR) || errors.Is(err, syscall.ENOTDIR) {
		return err
	}
	return transientError{err}
}

// openCheckpointFile loads or initializes the journal at path for a
// sweep identified by (mode, seed, z, shard, spec) — z is the
// effective Wilson quantile, part of the identity because stored
// results carry intervals computed at it. An existing file must match
// the identity exactly; a fresh file starts empty; a damaged file is
// salvaged (intact entries kept, damaged ones dropped and counted for
// recompute) and normalized back to canonical bytes. An empty path
// disables checkpointing.
func openCheckpointFile(path, mode string, seed uint64, z float64, shard Shard, spec any) (*checkpoint, error) {
	if path == "" {
		return nil, nil
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("marshal checkpoint spec: %w", err)
	}
	ck := &checkpoint{
		path: path,
		header: checkpointHeader{
			Schema: checkpointSchema,
			Mode:   mode,
			Seed:   seed,
			Z:      z,
			Shard:  shard.ptr(),
			Spec:   specJSON,
		},
		entries: map[int]checkpointEntry{},
		lastKey: -1,
		ordered: true,
	}
	cf, err := readCheckpointFile(path)
	if os.IsNotExist(err) {
		// The header lands through a rename, so a create that fails
		// leaves no file at path, never an empty or torn header that
		// the retry and every later open would reject.
		if err := writeFileAtomic(path, ck.headerLine()); err != nil {
			return nil, err
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, classifyOpen(fmt.Errorf("create checkpoint: %w", err))
		}
		ck.f = f
		return ck, nil
	}
	if err != nil {
		return nil, err
	}
	prev := cf.header
	if prev.Mode != mode || prev.Seed != seed || prev.Z != z ||
		!shardEqual(prev.Shard, ck.header.Shard) ||
		!bytes.Equal(canonicalJSON(prev.Spec), canonicalJSON(specJSON)) {
		return nil, fmt.Errorf("checkpoint %s was written by a different sweep (mode/seed/z/shard/spec mismatch); delete it or change -checkpoint", path)
	}
	ck.entries = cf.entries
	ck.salvaged = cf.salvaged
	//nrlint:allow determinism -- commutative max over the keys; iteration order cannot reach the result
	for k := range ck.entries {
		if k > ck.lastKey {
			ck.lastKey = k
		}
	}
	if !cf.canonical {
		// Normalize before appending so the resumed journal starts
		// canonical again (salvage drops and overwrites rewritten away).
		if err := writeFileAtomic(path, ck.canonicalBytes()); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, classifyOpen(fmt.Errorf("reopen checkpoint: %w", err))
	}
	ck.f = f
	return ck, nil
}

// openJitterSalt and putJitterSalt key the backoff-jitter streams of
// checkpoint I/O retries off the run seed, far outside any plausible
// point index or trial count.
const (
	openJitterSalt = 0x4f50454e // "OPEN"
	putJitterSalt  = 0x505554   // "PUT"
)

// A checkpoint operation runs at most retryAttempts times, the first
// included. The wait before each retry is drawn uniformly from
// [retryBase, 3·the previous wait) (decorrelated jitter), so the waits
// stay below retryBase·3^(retryAttempts−1) = 135 ms.
const (
	retryAttempts = 4
	retryBase     = 5 * time.Millisecond
)

// retry runs op until it succeeds, fails with an error not marked
// transient, or has run retryAttempts times. The waits draw from
// rng.ForkSeed(Seed, salt), so they are a pure function of the seed,
// and pass through Runner.Sleeper (nil computes them without
// waiting); retries touch only the journal, never a result stream.
// Each retry counts in sweep_retries_total and its wait in
// resilience_backoff_seconds.
func (r Runner) retry(salt uint64, op func() error) error {
	jitter := rng.New(rng.ForkSeed(r.Seed, salt))
	wait := retryBase
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || !errors.As(err, new(transientError)) {
			return err
		}
		if attempt == retryAttempts {
			return fmt.Errorf("%d attempts exhausted: %w", retryAttempts, err)
		}
		//nrlint:allow overflow -- wait < retryBase·3^(retryAttempts−1) = 135 ms, so 3·wait ≪ 2⁶³ ns ≈ 292 years
		hi := 3 * wait
		//nrlint:allow overflow -- Float64 < 1 keeps the sum below hi ≤ retryBase·3^(retryAttempts−1) = 135 ms
		wait = retryBase + time.Duration(jitter.Float64()*float64(hi-retryBase))
		if m := r.Obs.Metrics; m != nil {
			m.retries.Inc()
			m.backoff.Observe(wait.Seconds())
		}
		obs.Sleep(r.Sleeper, wait)
	}
}

// openCheckpoint opens the Runner's journal (if configured) for one
// sweep mode, retrying a transiently failing open (an I/O blip), and
// records any salvage degradation.
func (r Runner) openCheckpoint(mode string, spec any) (*checkpoint, error) {
	if r.Checkpoint == "" {
		return nil, nil
	}
	var ck *checkpoint
	err := r.retry(openJitterSalt, func() error {
		var err error
		ck, err = openCheckpointFile(r.Checkpoint, mode, r.Seed, r.z(), r.Shard, spec)
		return err
	})
	if err != nil {
		return nil, err
	}
	if r.journal != nil {
		ck.f = r.journal(ck.f)
	}
	r.observeCheckpointOpen(ck)
	return ck, nil
}

// canonicalJSON re-marshals raw JSON so semantically equal specs
// compare equal regardless of whitespace.
func canonicalJSON(raw json.RawMessage) []byte {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return raw
	}
	out, err := json.Marshal(v)
	if err != nil {
		return raw
	}
	return out
}

func (c *checkpoint) headerLine() []byte {
	line, err := json.Marshal(c.header)
	if err != nil {
		// The header is a struct of plain fields plus a RawMessage that
		// marshaled once already; failure here is unreachable.
		panic(fmt.Sprintf("sweep: marshal checkpoint header: %v", err))
	}
	return append(line, '\n')
}

// canonicalBytes is the journal's canonical byte sequence: header
// line, then entries in ascending key order. A completed run's file
// always equals this (close compacts when appends were out of order),
// which is what makes "merged shards == single-host file" a
// byte-level identity.
func (c *checkpoint) canonicalBytes() []byte {
	keys := make([]int, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var buf bytes.Buffer
	buf.Write(c.headerLine())
	for _, k := range keys {
		writeEntryLine(&buf, c.entries[k])
	}
	return buf.Bytes()
}

// writeEntryLine writes ent's frame and a newline. ent.Result is
// json.Marshal output, compact and HTML-escaped already, so the line is
// what json.Marshal(ent) would write, without marshaling it again.
func writeEntryLine(buf *bytes.Buffer, ent checkpointEntry) {
	buf.WriteString(framePrefix)
	buf.Write(strconv.AppendInt(buf.AvailableBuffer(), int64(ent.Key), 10))
	buf.WriteString(frameCRC)
	buf.WriteString(ent.CRC)
	buf.WriteString(frameResult)
	buf.Write(ent.Result)
	buf.WriteString(frameSuffix + "\n")
}

// writeFileAtomic replaces path with data through path.tmp and a
// rename, so path holds the old bytes or the new ones, never a part.
// Writing path.tmp creates a file, so its error is classified as a
// create's (classifyOpen).
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return classifyOpen(fmt.Errorf("write checkpoint: %w", err))
	}
	if err := os.Rename(tmp, path); err != nil {
		return transientError{fmt.Errorf("commit checkpoint: %w", err)}
	}
	return nil
}

// get returns the stored result for a point key, if any. Quarantined
// entries report !ok: they are kept on disk for accounting, but a
// resume recomputes them.
func (c *checkpoint) get(key int) (PointResult, bool) {
	if c == nil {
		return PointResult{}, false
	}
	ent, ok := c.entries[key]
	if !ok {
		return PointResult{}, false
	}
	var pr PointResult
	if err := json.Unmarshal(ent.Result, &pr); err != nil || pr.Error != nil {
		return PointResult{}, false
	}
	return pr, true
}

// put appends a completed point to the journal: one marshal and one
// write per point, O(1) against the sweep size. Keys outside the
// checkpoint's shard are silently skipped (bisect computes every
// evaluation but each shard has custody only of its residues). A
// failed append is transient — the caller retries it — and an
// overwrite or out-of-order append just costs a compaction at close.
func (c *checkpoint) put(key int, res PointResult) error {
	if c == nil {
		return nil
	}
	if s := c.header.Shard; s != nil && !s.Owns(key) {
		return nil
	}
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("marshal checkpoint point %d: %w", key, err)
	}
	ent := checkpointEntry{Key: key, CRC: entryCRC(data), Result: data}
	var buf bytes.Buffer
	buf.Grow(len(data) + 64) // the frame, the key and the newline take at most 56 bytes
	writeEntryLine(&buf, ent)
	if _, dup := c.entries[key]; dup || key <= c.lastKey {
		c.ordered = false
	}
	c.entries[key] = ent
	if key > c.lastKey {
		c.lastKey = key
	}
	if _, err := c.f.Write(buf.Bytes()); err != nil {
		// The in-memory entry stays; the retry appends a fresh line and
		// the possibly-torn one is compacted or salvaged away.
		c.ordered = false
		return transientError{fmt.Errorf("append checkpoint %s: %w", c.path, err)}
	}
	return nil
}

// salvagedCount reports how many damaged entries open dropped.
func (c *checkpoint) salvagedCount() int {
	if c == nil {
		return 0
	}
	return c.salvaged
}

// close finishes the journal: the append handle is closed and, when
// appends were overwrites or out of order (retries, recomputed
// quarantines, interleaved resumes), the file is compacted to the
// canonical byte sequence.
func (c *checkpoint) close() error {
	if c == nil || c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	if err != nil {
		return fmt.Errorf("close checkpoint %s: %w", c.path, err)
	}
	if c.ordered {
		return nil
	}
	return writeFileAtomic(c.path, c.canonicalBytes())
}

// abandon releases the append handle without compaction: the
// error-path cleanup. The journal stays valid (the next open
// normalizes it); calling it after close is a no-op.
func (c *checkpoint) abandon() {
	if c == nil || c.f == nil {
		return
	}
	_ = c.f.Close()
	c.f = nil
}
