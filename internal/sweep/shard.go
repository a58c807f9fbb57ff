package sweep

import (
	"fmt"
	"strconv"
	"strings"
)

// Shard restricts a sweep run to a stable residue class of its point
// indices: shard i of m owns every point whose index ≡ i (mod m).
// Because point indices — and hence random streams and checkpoint
// keys — are a pure function of the spec, the union of m shard runs
// is exactly the single-host run, point for point and bit for bit;
// Merge turns the m shard checkpoints back into the single-host
// checkpoint byte-for-byte. The zero value is the unsharded run that
// owns everything.
//
// A shard is part of checkpoint identity: shard i/m refuses to resume
// shard j/m's file (and an unsharded run refuses any shard file), so
// hosts cannot silently cross-contaminate each other's journals.
type Shard struct {
	Index int `json:"index"`
	Of    int `json:"of"`
}

// Enabled reports whether the shard actually restricts anything (the
// zero value does not).
func (s Shard) Enabled() bool { return s.Of != 0 || s.Index != 0 }

// Validate rejects malformed shard specs; the zero value is valid.
func (s Shard) Validate() error {
	if !s.Enabled() {
		return nil
	}
	if s.Of < 1 || s.Index < 0 || s.Index >= s.Of {
		return fmt.Errorf("shard %d/%d invalid: want 0 <= index < of", s.Index, s.Of)
	}
	return nil
}

// Owns reports whether point index i belongs to this shard.
func (s Shard) Owns(i int) bool {
	if !s.Enabled() {
		return true
	}
	return i%s.Of == s.Index
}

// String renders the CLI spelling "index/of".
func (s Shard) String() string {
	return strconv.Itoa(s.Index) + "/" + strconv.Itoa(s.Of)
}

// ptr returns the shard as the checkpoint-header/result slot value:
// nil for the unsharded run, so unsharded files carry no shard field
// at all.
func (s Shard) ptr() *Shard {
	if !s.Enabled() {
		return nil
	}
	return &s
}

func shardEqual(a, b *Shard) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

// ParseShard parses the CLI spelling "index/of" (e.g. "2/4").
func ParseShard(s string) (Shard, error) {
	idxStr, ofStr, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("shard %q: want index/of (e.g. 2/4)", s)
	}
	idx, err1 := strconv.Atoi(idxStr)
	of, err2 := strconv.Atoi(ofStr)
	if err1 != nil || err2 != nil {
		return Shard{}, fmt.Errorf("shard %q: want index/of (e.g. 2/4)", s)
	}
	sh := Shard{Index: idx, Of: of}
	if err := sh.Validate(); err != nil {
		return Shard{}, err
	}
	if !sh.Enabled() {
		return Shard{}, fmt.Errorf("shard %q: of must be >= 1", s)
	}
	return sh, nil
}
