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
	"syscall"

	"github.com/gossipkit/noisyrumor/internal/resilience"
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
// and the CRC32 (IEEE) of the result bytes. A line whose CRC does not
// match — or that does not parse at all — is a salvage drop, not a
// fatal error.
type checkpointEntry struct {
	Key    int             `json:"key"`
	CRC    string          `json:"crc"`
	Result json.RawMessage `json:"result"`
}

func entryCRC(result []byte) string {
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(result))
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
		return nil, classifyOpen(fmt.Errorf("sweep: read checkpoint: %w", err))
	}
	nl := bytes.IndexByte(data, '\n')
	headerLine := data
	if nl >= 0 {
		headerLine = data[:nl]
	}
	cf := &checkpointFile{entries: map[int]checkpointEntry{}, canonical: true}
	if err := json.Unmarshal(headerLine, &cf.header); err != nil {
		if sniffSchema(data) == checkpointSchemaV1 {
			return nil, fmt.Errorf("sweep: checkpoint %s uses the retired v1 format (one JSON document); this build reads the v2 line journal — delete the file and re-run, the sweep will recompute it", path)
		}
		return nil, fmt.Errorf("sweep: checkpoint %s: unreadable header at byte 0 (%v); without the header line the file cannot be identified, so no points can be salvaged — delete it (or restore a backup) and re-run to recompute", path, err)
	}
	if cf.header.Schema != checkpointSchema {
		return nil, fmt.Errorf("sweep: checkpoint %s has schema %q, want %q", path, cf.header.Schema, checkpointSchema)
	}
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
		if len(bytes.TrimSpace(line)) > 0 {
			var ent checkpointEntry
			if err := json.Unmarshal(line, &ent); err != nil || ent.CRC != entryCRC(ent.Result) {
				// Torn or corrupt entry at byte offset `off`: drop and
				// recompute. Damage is recoverable here, unlike the header.
				cf.salvaged++
				cf.canonical = false
			} else {
				if _, dup := cf.entries[ent.Key]; dup || ent.Key <= lastKey {
					cf.canonical = false // journal semantics: the later write wins
				}
				cf.entries[ent.Key] = ent
				if ent.Key > lastKey {
					lastKey = ent.Key
				}
			}
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

// classifyOpen classifies a checkpoint open, read or create error:
// Transient, unless no retry can fix it — a missing directory, a
// denied permission, a path that names a directory or runs through a
// file — which stays unclassified so the run aborts at once.
func classifyOpen(err error) error {
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, fs.ErrPermission) ||
		errors.Is(err, syscall.EISDIR) || errors.Is(err, syscall.ENOTDIR) {
		return err
	}
	return resilience.Transient(err)
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
		return nil, fmt.Errorf("sweep: marshal checkpoint spec: %w", err)
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
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, classifyOpen(fmt.Errorf("sweep: create checkpoint: %w", err))
		}
		if _, err := f.Write(ck.headerLine()); err != nil {
			_ = f.Close()
			return nil, resilience.Transient(fmt.Errorf("sweep: write checkpoint header: %w", err))
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
		return nil, fmt.Errorf("sweep: checkpoint %s was written by a different sweep (mode/seed/z/shard/spec mismatch); delete it or change -checkpoint", path)
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
		return nil, classifyOpen(fmt.Errorf("sweep: reopen checkpoint: %w", err))
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

// openCheckpoint opens the Runner's journal (if configured) for one
// sweep mode under the retry policy — a transiently failing open (an
// I/O blip) is retried with deterministic jitter — and records any
// salvage degradation.
func (r Runner) openCheckpoint(mode string, spec any) (*checkpoint, error) {
	if r.Checkpoint == "" {
		return nil, nil
	}
	pol := r.retryPolicy()
	jr := rng.New(rng.ForkSeed(r.Seed, openJitterSalt))
	var ck *checkpoint
	err := pol.Do(jr, func(int) error {
		var err error
		ck, err = openCheckpointFile(r.Checkpoint, mode, r.Seed, r.z(), r.Shard, spec)
		return err
	})
	if err != nil {
		return nil, err
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

func writeEntryLine(buf *bytes.Buffer, ent checkpointEntry) {
	line, err := json.Marshal(ent)
	if err != nil {
		panic(fmt.Sprintf("sweep: marshal checkpoint entry: %v", err))
	}
	buf.Write(line)
	buf.WriteByte('\n')
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return resilience.Transient(fmt.Errorf("sweep: write checkpoint: %w", err))
	}
	if err := os.Rename(tmp, path); err != nil {
		return resilience.Transient(fmt.Errorf("sweep: commit checkpoint: %w", err))
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
// failed append is Transient — the caller retries it — and an
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
		return fmt.Errorf("sweep: marshal checkpoint point %d: %w", key, err)
	}
	ent := checkpointEntry{Key: key, CRC: entryCRC(data), Result: data}
	var buf bytes.Buffer
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
		return resilience.Transient(fmt.Errorf("sweep: append checkpoint %s: %w", c.path, err))
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
		return resilience.Transient(fmt.Errorf("sweep: close checkpoint %s: %w", c.path, err))
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
