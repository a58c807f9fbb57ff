package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/gossipkit/noisyrumor/internal/model"
	"github.com/gossipkit/noisyrumor/internal/noise"
	"github.com/gossipkit/noisyrumor/internal/rng"
)

// TestScheduleWithinThetaBounds: the whole point of the construction —
// for any (n, ε) the schedule's total length is Θ(log n/ε²), checked
// with explicit constants across the parameter space.
func TestScheduleWithinThetaBounds(t *testing.T) {
	f := func(nRaw uint32, epsRaw uint16) bool {
		n := int(nRaw%1000000) + 100
		eps := 0.05 + float64(epsRaw%900)/1000 // [0.05, 0.95)
		p := DefaultParams(eps)
		s, err := NewSchedule(int64(n), p)
		if err != nil {
			return false
		}
		unit := math.Log(float64(n)) / (eps * eps)
		total := float64(s.TotalRounds())
		// Generous explicit Θ constants: the schedule is a handful of
		// log-length phases plus O(log n) constant-length phases.
		return total >= 0.5*unit && total <= 60*unit+100
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleMonotoneInN: more agents never shortens the schedule.
func TestScheduleMonotoneInN(t *testing.T) {
	p := DefaultParams(0.25)
	prev := 0
	for _, n := range []int{100, 1000, 10000, 100000, 1000000} {
		s, err := NewSchedule(int64(n), p)
		if err != nil {
			t.Fatal(err)
		}
		if s.TotalRounds() < prev {
			t.Fatalf("schedule shrank at n=%d: %d < %d", n, s.TotalRounds(), prev)
		}
		prev = s.TotalRounds()
	}
}

// TestProtocolPreservesOpinionValidity: after a full run every node
// holds a valid opinion (the protocol never manufactures out-of-range
// values or reverts nodes to undecided).
func TestProtocolPreservesOpinionValidity(t *testing.T) {
	r := rng.New(4040)
	for trial := 0; trial < 10; trial++ {
		k := 2 + r.Intn(4)
		n := 300 + r.Intn(500)
		eps := 0.25 + r.Float64()*0.25
		nm, err := noise.Uniform(k, eps)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := model.NewEngine(n, nm, model.ProcessO, rng.New(rng.ForkSeed(r.Uint64(), uint64(trial))))
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(eng, DefaultParams(eps))
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, k)
		remaining := n / 2
		for i := 0; i < k; i++ {
			c := remaining / (k - i)
			counts[i] = c
			remaining -= c
		}
		counts[0] += n / 10 // strict plurality
		if sum := sumInts(counts); sum > n {
			counts[0] -= sum - n
		}
		init, err := model.InitPlurality(n, counts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(init, 0); err != nil {
			t.Fatal(err)
		}
		for u, o := range p.Opinions() {
			if o == model.Undecided || o < 0 || int(o) >= k {
				t.Fatalf("trial %d: node %d ended with opinion %d", trial, u, o)
			}
		}
	}
}

func sumInts(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// TestStage1NeverRevertsOpinions: Stage 1's defining invariant —
// opinionated nodes never change opinion during Stage 1. Verified by
// running only Stage-1 phases directly.
func TestStage1NeverRevertsOpinions(t *testing.T) {
	nm, err := noise.Uniform(3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := model.NewEngine(500, nm, model.ProcessO, rng.New(555))
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(eng, DefaultParams(0.3))
	if err != nil {
		t.Fatal(err)
	}
	init, err := model.InitPlurality(500, []int{40, 30, 20})
	if err != nil {
		t.Fatal(err)
	}
	copy(p.ops, init)
	snapshot := append([]model.Opinion(nil), p.ops...)
	for _, rounds := range p.sched.Stage1 {
		if err := p.runStage1Phase(rounds); err != nil {
			t.Fatal(err)
		}
		for u := range snapshot {
			if snapshot[u] != model.Undecided && p.ops[u] != snapshot[u] {
				t.Fatalf("node %d changed opinion %d → %d during Stage 1",
					u, snapshot[u], p.ops[u])
			}
		}
		copy(snapshot, p.ops)
	}
}
