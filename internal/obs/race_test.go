package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestRegistryRaceStress hammers one shared Registry from 8
// goroutines — counters, a labeled per-worker counter, a gauge, a
// histogram and concurrent scrapes — and then checks exact final
// counts. Mirrors the LawCache concurrent-stress pattern: run under
// -race (make race / CI) to surface unsynchronized access.
func TestRegistryRaceStress(t *testing.T) {
	const (
		goroutines = 8
		iters      = 2000
	)
	r := NewRegistry()
	total := r.Counter("stress_total", "")
	hist := r.Histogram("stress_hist", "", LogBuckets(1, 4, 6))
	gauge := r.Gauge("stress_gauge", "")
	perWorker := r.CounterVec("stress_worker_total", "", "worker")

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Capture the child once, like instrumented hot paths do.
			mine := perWorker.With(workerLabel(g))
			for i := 0; i < iters; i++ {
				total.Inc()
				mine.Add(2)
				hist.Observe(float64(i % 100))
				gauge.Add(1)
				if i%500 == 0 {
					// Scrape concurrently with writes; output must stay
					// well-formed (checked by -race + no panic).
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Errorf("concurrent scrape: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Exact accounting: every increment must land.
	if got := total.Value(); got != goroutines*iters {
		t.Fatalf("stress_total = %d, want %d", got, goroutines*iters)
	}
	if got := hist.Count(); got != goroutines*iters {
		t.Fatalf("stress_hist count = %d, want %d", got, goroutines*iters)
	}
	// Sum of i%100 over iters=2000 per goroutine: 20 full cycles of
	// 0..99 → 20·4950 = 99000 each.
	if got, want := hist.Sum(), float64(goroutines*99000); got != want {
		t.Fatalf("stress_hist sum = %v, want %v", got, want)
	}
	if got := gauge.Value(); got != float64(goroutines*iters) {
		t.Fatalf("stress_gauge = %v, want %d", got, goroutines*iters)
	}
	var perTotal int64
	for g := 0; g < goroutines; g++ {
		v := perWorker.With(workerLabel(g)).Value()
		if v != 2*iters {
			t.Fatalf("worker %d counter = %d, want %d", g, v, 2*iters)
		}
		perTotal += v
	}
	if perTotal != 2*goroutines*iters {
		t.Fatalf("per-worker total = %d, want %d", perTotal, 2*goroutines*iters)
	}
}

func workerLabel(g int) string {
	return string(rune('0' + g))
}

// TestShardRaceStress has each of 8 goroutines write its own shards
// of one counter and one histogram while others add shards and scrape:
// run under -race, and every write must land in the parent's totals.
func TestShardRaceStress(t *testing.T) {
	const (
		goroutines = 8
		iters      = 2000
	)
	r := NewRegistry()
	total := r.Counter("shard_total", "")
	hist := r.Histogram("shard_hist", "", LogBuckets(1, 4, 6))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine, myHist := total.Shard(), hist.Shard()
			for i := 0; i < iters; i++ {
				mine.Inc()
				myHist.Observe(float64(i % 100))
				if i%500 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Errorf("concurrent scrape: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := total.Value(); got != goroutines*iters {
		t.Fatalf("shard_total = %d, want %d", got, goroutines*iters)
	}
	if got := hist.Count(); got != goroutines*iters {
		t.Fatalf("shard_hist count = %d, want %d", got, goroutines*iters)
	}
	if got, want := hist.Sum(), float64(goroutines*99000); got != want {
		t.Fatalf("shard_hist sum = %v, want %v", got, want)
	}
}
