// Package determinism is the analysistest fixture for the
// determinism analyzer: positive cases carry `// want` annotations,
// negative cases are the deliberately-allowed patterns (sorted-key
// iteration, index-keyed fan-in, justified suppressions).
//
//nrlint:deterministic
package determinism

import (
	_ "math/rand" // want `deterministic package imports "math/rand"`
	"sort"
	"sync"
	"time"

	"github.com/gossipkit/noisyrumor/internal/obs"
	"github.com/gossipkit/noisyrumor/internal/rng"
)

func mapRangePositive(m map[string]int) int {
	total := 0
	for _, v := range m { // want `range over map m iterates in randomized order`
		total += v
	}
	return total
}

func mapRangeSortedNegative(m map[string]int) []int {
	keys := make([]string, 0, len(m))
	for k := range m { // key-collection half of the sorted-keys idiom: no finding
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]int, 0, len(keys))
	for _, k := range keys { // slice range: no finding
		out = append(out, m[k])
	}
	return out
}

// Stream fan-outs keyed by map iteration: the pairing of keys to
// streams is stable, but the order of the derived seeds is not. The
// first loop has the key-collection idiom's shape, yet appends a
// value derived from the key rather than the key itself.
func mapKeyForkSeedPositive(seed uint64, m map[uint64]int) []uint64 {
	var seeds []uint64
	for k := range m { // want `range over map m iterates in randomized order`
		seeds = append(seeds, rng.ForkSeed(seed, k))
	}
	return seeds
}

func mapValueForkSeedPositive(seed uint64, m map[string]uint64) []*rng.Rand {
	var kids []*rng.Rand
	for _, v := range m { // want `range over map m iterates in randomized order`
		kids = append(kids, rng.New(rng.ForkSeed(seed, v)))
	}
	return kids
}

func mapRangeAllowedNegative(m map[string]int) int {
	total := 0
	// Commutative integer sum: order cannot reach the result.
	//nrlint:allow determinism -- commutative int sum, order-free by construction
	for _, v := range m {
		total += v
	}
	return total
}

func wallClockPositive() int64 {
	start := time.Now()          // want `time.Now in a deterministic package`
	elapsed := time.Since(start) // want `time.Since in a deterministic package`
	_ = elapsed
	return 0
}

func wallClockSincePositive(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time.Since in a deterministic package`
}

func wallClockConstructPositive() obs.Clock {
	return obs.WallClock{} // want `obs.WallClock constructed in a deterministic package`
}

func wallClockConstructPtrPositive() obs.Clock {
	return &obs.WallClock{} // want `obs.WallClock constructed in a deterministic package`
}

func sleepPositive() {
	time.Sleep(time.Millisecond) // want `time.Sleep in a deterministic package`
}

func wallSleeperConstructPositive() obs.Sleeper {
	return obs.WallSleeper{} // want `obs.WallSleeper constructed in a deterministic package`
}

func clockInjectionNegative(c obs.Clock) float64 {
	start := obs.Now(c) // injected clock read through obs helpers: no finding
	return obs.SinceSeconds(c, start)
}

func sleeperInjectionNegative(s obs.Sleeper) {
	obs.Sleep(s, time.Millisecond) // injected sleeper through obs.Sleep: no finding
}

func manualClockNegative() obs.Clock {
	return &obs.ManualClock{} // deterministic clock: no finding
}

func fanInAppendPositive(items []int) []int {
	var out []int
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, it := range items {
		wg.Add(1)
		go func(it int) {
			defer wg.Done()
			mu.Lock()
			out = append(out, it*it) // want `goroutine appends to shared slice out`
			mu.Unlock()
		}(it)
	}
	wg.Wait()
	return out
}

func fanInIndexedNegative(items []int) []int {
	out := make([]int, len(items))
	var wg sync.WaitGroup
	for i, it := range items {
		wg.Add(1)
		go func(i, it int) {
			defer wg.Done()
			out[i] = it * it // index-keyed slot: no finding
		}(i, it)
	}
	wg.Wait()
	return out
}

func localAppendNegative(items []int) []int {
	done := make(chan []int, 1)
	go func() {
		var local []int // declared inside the goroutine: no finding
		for _, it := range items {
			local = append(local, it)
		}
		done <- local
	}()
	return <-done
}
