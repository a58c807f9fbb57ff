package noisyrumor

import (
	"reflect"
	"testing"
)

// TestRumorSpreadingBackends runs the headline problem on both
// sampling backends through the public API: both must succeed from a
// single source, and an unknown backend name must be rejected up
// front.
func TestRumorSpreadingBackends(t *testing.T) {
	nm, err := UniformNoise(3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range Backends() {
		params := DefaultParams(0.3)
		params.Backend = backend
		res, err := RumorSpreading(Config{N: 3000, Noise: nm, Params: params, Seed: 7}, 1)
		if err != nil {
			t.Fatalf("backend %s: %v", backend, err)
		}
		if !res.Correct {
			t.Errorf("backend %s: did not converge to the correct opinion", backend)
		}
	}
}

// TestParamsBackendAloneKeepsDefaults: setting only Params.Backend
// must not defeat the zero-Params defaults derivation.
func TestParamsBackendAloneKeepsDefaults(t *testing.T) {
	nm, err := UniformNoise(3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: 2000, Noise: nm, Seed: 3, Params: Params{Backend: "batch"}}
	res, err := RumorSpreading(cfg, 0)
	if err != nil {
		t.Fatalf("Params{Backend} alone rejected: %v", err)
	}
	if !res.Consensus {
		t.Fatal("no consensus under derived default params")
	}
}

func TestUnknownBackendRejected(t *testing.T) {
	nm, err := UniformNoise(2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams(0.3)
	params.Backend = "warp"
	if _, err := RumorSpreading(Config{N: 100, Noise: nm, Params: params}, 0); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

func TestBackendsList(t *testing.T) {
	names := Backends()
	if len(names) != 3 || names[0] != "loop" || names[1] != "batch" || names[2] != "parallel" {
		t.Fatalf("Backends() = %v", names)
	}
}

// TestParallelThreads1MatchesBatchAPI: through the public API, a
// parallel run pinned to one thread must reproduce the batch backend
// bit for bit — Params.Threads reaches the engine.
func TestParallelThreads1MatchesBatchAPI(t *testing.T) {
	nm, err := UniformNoise(3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	run := func(backend string, threads int) Result {
		params := DefaultParams(0.3)
		params.Backend, params.Threads = backend, threads
		res, err := RumorSpreading(Config{N: 2500, Noise: nm, Params: params, Seed: 5}, 0)
		if err != nil {
			t.Fatalf("backend %s threads %d: %v", backend, threads, err)
		}
		return res
	}
	batch := run("batch", 0)
	par := run("parallel", 1)
	if !reflect.DeepEqual(batch, par) {
		t.Fatalf("parallel threads=1 diverges from batch:\nbatch:    %+v\nparallel: %+v", batch, par)
	}
}

// TestParallelThreadsDeterminismAPI: fixed (Seed, Backend, Threads)
// reproduces the same outcome at every thread count.
func TestParallelThreadsDeterminismAPI(t *testing.T) {
	nm, err := UniformNoise(3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 4, 8} {
		params := DefaultParams(0.3)
		params.Backend, params.Threads = "parallel", threads
		var prev Result
		for rep := 0; rep < 2; rep++ {
			res, err := RumorSpreading(Config{N: 2500, Noise: nm, Params: params, Seed: 13}, 0)
			if err != nil {
				t.Fatalf("threads %d: %v", threads, err)
			}
			if rep > 0 && !reflect.DeepEqual(res, prev) {
				t.Fatalf("threads %d: nondeterministic across identical runs", threads)
			}
			prev = res
		}
	}
}
