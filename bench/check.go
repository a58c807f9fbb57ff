package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

const (
	// familyAlpha is the family-wise false-alarm rate of the reference
	// check, Bonferroni-split across a workload's points.
	familyAlpha = 1e-3
	// criticalTol is how far a bisection's ε* may land from the
	// reference's.
	criticalTol = 0.01
)

// reference is a workload's outcome at a fixed seed, against which any
// other seed's outcome is tested statistically: every point's success
// count (grids) or the located ε* (bisection). A law change that moves
// results within the accounted budget passes; one that breaks them
// does not.
type reference struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Successes []int   `json:"successes,omitempty"`
	Trials    []int   `json:"trials,omitempty"`
	Critical  float64 `json:"critical,omitempty"`
}

func (s *session) refPath() string {
	return filepath.Join(s.cfg.refDir, s.w.name+".ref.json")
}

// writeReference stores the warm-up's outcome as the workload's
// reference.
func (s *session) writeReference() error {
	ref := reference{Workload: s.w.name, Seed: s.cfg.seed}
	if s.w.bisect != nil {
		ref.Critical = s.out.critical
	} else {
		for _, p := range s.out.points {
			ref.Successes = append(ref.Successes, p.Successes)
			ref.Trials = append(ref.Trials, p.Trials)
		}
	}
	data, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	if err := os.WriteFile(s.refPath(), append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(s.log, "wrote %s\n", s.refPath())
	return nil
}

// loadReference reads the workload's reference outcome.
func (s *session) loadReference() error {
	data, err := os.ReadFile(s.refPath())
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if err := json.Unmarshal(data, &s.want); err != nil {
		return fmt.Errorf("reference %s: %w", s.refPath(), err)
	}
	return nil
}

// checkReference tests the outcome at seed against the reference: each
// grid point's successes with Fisher's exact test at
// familyAlpha/points, a bisection's ε* within ±criticalTol.
func (s *session) checkReference(seed uint64, out outcome) {
	ref, pts := s.want, out.points
	if s.w.bisect != nil {
		if d := math.Abs(out.critical - ref.Critical); d > criticalTol {
			s.fail(len(pts), "seed %d: ε* = %.5f is %.4f from the reference %.5f (seed %d)", seed, out.critical, d, ref.Critical, ref.Seed)
		}
		return
	}
	if len(ref.Successes) != len(pts) || len(ref.Trials) != len(pts) {
		s.fail(len(pts), "seed %d: reference has %d points, the result %d", seed, len(ref.Successes), len(pts))
		return
	}
	alpha := familyAlpha / float64(len(pts))
	for i, p := range pts {
		if pv := fisherP(p.Successes, p.Trials, ref.Successes[i], ref.Trials[i]); pv < alpha {
			s.fail(1, "seed %d, point %d: %d/%d successes against the reference's %d/%d (Fisher p = %.3g < %.3g)",
				seed, i, p.Successes, p.Trials, ref.Successes[i], ref.Trials[i], pv, alpha)
		}
	}
}
