package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// MergeReport accounts for one shard merge: what was combined, what
// is still missing, and what was degraded along the way.
type MergeReport struct {
	Mode string `json:"mode"`
	// Of is the shard count the inputs declared; Shards the shard
	// indices actually present, MissingShards the lost ones.
	Of            int   `json:"of"`
	Shards        []int `json:"shards"`
	MissingShards []int `json:"missing_shards,omitempty"`
	// Points is the number of good point results merged; Expected the
	// total the spec calls for (for bisect: the contiguous evaluation
	// prefix implied by the largest key seen).
	Points   int `json:"points"`
	Expected int `json:"expected"`
	// Missing lists point keys with no result at all; Quarantined the
	// keys whose stored result is a quarantine record (kept out of the
	// merged journal in strict mode, carried through with -partial so a
	// resume recomputes them).
	Missing     []int `json:"missing,omitempty"`
	Quarantined []int `json:"quarantined,omitempty"`
	// Salvaged counts damaged journal lines dropped while reading the
	// shard files.
	Salvaged int `json:"salvaged,omitempty"`
}

// Complete reports whether every expected point is present and clean.
func (m *MergeReport) Complete() bool {
	return len(m.Missing) == 0 && len(m.Quarantined) == 0 && len(m.MissingShards) == 0
}

// Merge combines shard checkpoint journals into the single-host
// journal at outPath. Every input must be a shard file from the same
// sweep — same (schema, mode, seed, z, spec) with distinct shard
// indices of one shard count — and may hold only keys its shard owns;
// anything else is rejected rather than silently combined. When every
// shard and every point is present, the merged file is byte-identical
// to the checkpoint a single-host run writes (the shard-merge
// identity rule, pinned by the chaos tests), so a single host can
// resume it seamlessly.
//
// In strict mode (partial=false) missing shards, missing points or
// quarantined points abort before writing. With partial=true the
// union is written anyway — quarantine records included — producing a
// resumable journal whose gaps a single-host re-run recomputes; the
// report says exactly what is owed.
func Merge(outPath string, partial bool, paths ...string) (*MergeReport, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("merge needs at least one shard checkpoint")
	}
	rep := &MergeReport{}
	var ref checkpointHeader
	merged := map[int]checkpointEntry{}
	seenShard := map[int]string{}
	for i, path := range paths {
		cf, err := readCheckpointFile(path)
		if err != nil {
			return nil, err
		}
		rep.Salvaged += cf.salvaged
		hdr := cf.header
		if hdr.Shard == nil {
			return nil, fmt.Errorf("merge: %s is not a shard checkpoint (no shard field); merging already-merged or single-host files is meaningless", path)
		}
		if err := hdr.Shard.Validate(); err != nil {
			return nil, fmt.Errorf("merge: %s: %w", path, err)
		}
		if i == 0 {
			ref = hdr
			rep.Mode = hdr.Mode
			rep.Of = hdr.Shard.Of
		} else {
			if hdr.Mode != ref.Mode || hdr.Seed != ref.Seed || hdr.Z != ref.Z ||
				!bytes.Equal(canonicalJSON(hdr.Spec), canonicalJSON(ref.Spec)) {
				return nil, fmt.Errorf("merge: %s belongs to a different sweep than %s (mode/seed/z/spec mismatch)", path, paths[0])
			}
			if hdr.Shard.Of != rep.Of {
				return nil, fmt.Errorf("merge: %s declares %d shards, %s declares %d", path, hdr.Shard.Of, paths[0], rep.Of)
			}
		}
		if prev, dup := seenShard[hdr.Shard.Index]; dup {
			return nil, fmt.Errorf("merge: shard %d appears in both %s and %s; each shard merges exactly once", hdr.Shard.Index, prev, path)
		}
		seenShard[hdr.Shard.Index] = path
		rep.Shards = append(rep.Shards, hdr.Shard.Index)
		fileKeys := make([]int, 0, len(cf.entries))
		for key := range cf.entries {
			fileKeys = append(fileKeys, key)
		}
		sort.Ints(fileKeys)
		for _, key := range fileKeys {
			if !hdr.Shard.Owns(key) {
				return nil, fmt.Errorf("merge: %s holds point %d, which shard %s does not own; the file is corrupt or mislabeled", path, key, hdr.Shard)
			}
			// Shard custody plus distinct indices make cross-file key
			// collisions impossible; keys merge without conflict checks.
			merged[key] = cf.entries[key]
		}
	}
	sort.Ints(rep.Shards)
	for i := 0; i < rep.Of; i++ {
		if _, ok := seenShard[i]; !ok {
			rep.MissingShards = append(rep.MissingShards, i)
		}
	}

	keys := make([]int, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	maxKey := -1
	if len(keys) > 0 {
		maxKey = keys[len(keys)-1]
	}
	for _, k := range keys {
		var pr PointResult
		if err := json.Unmarshal(merged[k].Result, &pr); err == nil && pr.Error != nil {
			rep.Quarantined = append(rep.Quarantined, k)
		} else {
			rep.Points++
		}
	}
	expected, err := expectedKeys(ref, maxKey)
	if err != nil {
		return nil, err
	}
	rep.Expected = expected
	for k := 0; k < expected; k++ {
		if _, ok := merged[k]; !ok {
			rep.Missing = append(rep.Missing, k)
		}
	}

	if !partial && !rep.Complete() {
		return rep, fmt.Errorf("merge incomplete: %d/%d points good (missing shards %v, missing points %v, quarantined %v); re-run the owed shards against their checkpoints, or pass -partial to write the union for a single-host resume",
			rep.Points, rep.Expected, rep.MissingShards, rep.Missing, rep.Quarantined)
	}

	// The merged journal keeps quarantine records (partial mode only
	// can have them): a resume treats them as misses and recomputes.
	out := checkpoint{header: ref, entries: merged}
	out.header.Shard = nil
	if err := writeFileAtomic(outPath, out.canonicalBytes()); err != nil {
		return rep, err
	}
	return rep, nil
}

// expectedKeys derives the expected point-key count from a checkpoint
// header: grids and scaling sweeps enumerate their specs; bisect
// evaluations are numbered contiguously, so the largest key seen
// implies the prefix that must be present.
func expectedKeys(hdr checkpointHeader, maxKey int) (int, error) {
	switch hdr.Mode {
	case "grid":
		var g Grid
		if err := json.Unmarshal(hdr.Spec, &g); err != nil {
			return 0, fmt.Errorf("merge: parse grid spec: %w", err)
		}
		pts, err := g.Points()
		if err != nil {
			return 0, fmt.Errorf("merge: grid spec: %w", err)
		}
		return len(pts), nil
	case "scaling":
		var s Scaling
		if err := json.Unmarshal(hdr.Spec, &s); err != nil {
			return 0, fmt.Errorf("merge: parse scaling spec: %w", err)
		}
		return len(s.Ns), nil
	case "bisect":
		return maxKey + 1, nil
	default:
		return 0, fmt.Errorf("merge: unknown sweep mode %q", hdr.Mode)
	}
}
