package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/gossipkit/noisyrumor/internal/census"
	"github.com/gossipkit/noisyrumor/internal/obs"
)

// fullObs builds an Instrumentation with every sink live — registry,
// NDJSON tracer into buf, and a real wall clock — the maximal
// instrumentation a CLI run can attach.
func fullObs(buf *bytes.Buffer) (Instrumentation, *obs.Registry) {
	reg := obs.NewRegistry()
	return NewInstrumentation(reg, obs.NewTracer(buf, obs.WallClock{}), obs.WallClock{}), reg
}

// metricValue fetches one un-labeled counter/gauge value from a
// registry snapshot (-1 when absent).
func metricValue(reg *obs.Registry, name string) float64 {
	for _, m := range reg.Snapshot() {
		if m.Name == name && len(m.Values) == 1 && m.Values[0].Value != nil {
			return *m.Values[0].Value
		}
	}
	return -1
}

// censusTotals returns each census metric series' counter value or
// histogram observation count, keyed "name{label=value}".
func censusTotals(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, m := range reg.Snapshot() {
		if !strings.HasPrefix(m.Name, "census_") {
			continue
		}
		for _, v := range m.Values {
			key := m.Name
			for l, lv := range v.Labels {
				key += "{" + l + "=" + lv + "}"
			}
			switch {
			case v.Value != nil:
				out[key] = *v.Value
			case v.Count != nil:
				out[key] = float64(*v.Count)
			}
		}
	}
	return out
}

// TestObsBitIdentity is the write-only contract of DESIGN.md §2 made
// executable: a fully instrumented sweep — metrics registry, tracer
// and clock all live, law cache registered — must produce results and
// checkpoint files byte-identical to an uninstrumented run, at 1 and
// at 8 workers.
func TestObsBitIdentity(t *testing.T) {
	g := testGrid()
	g.LawQuant = 1e-3 // exercise the law-cache lookup/store/trace path too
	dir := t.TempDir()
	var censusAt1 map[string]float64
	for _, workers := range []int{1, 8} {
		run := func(tag string, inst Instrumentation, cache *census.LawCache) (*GridResult, []byte) {
			ck := filepath.Join(dir, fmt.Sprintf("%s-w%d", tag, workers))
			res, err := Runner{Seed: 7, Workers: workers, Checkpoint: ck, Cache: cache, Obs: inst}.RunGrid(g)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(ck)
			if err != nil {
				t.Fatal(err)
			}
			return res, raw
		}
		var trace bytes.Buffer
		inst, reg := fullObs(&trace)
		cache := census.NewLawCache()
		cache.Register(reg)
		plainRes, plainCk := run("plain", Instrumentation{}, census.NewLawCache())
		obsRes, obsCk := run("obs", inst, cache)

		if !reflect.DeepEqual(plainRes, obsRes) {
			t.Fatalf("workers=%d: instrumented grid result differs from plain:\n%+v\nvs\n%+v", workers, plainRes, obsRes)
		}
		a, _ := json.Marshal(plainRes)
		b, _ := json.Marshal(obsRes)
		if !bytes.Equal(a, b) {
			t.Fatalf("workers=%d: JSON serialization differs with instrumentation on", workers)
		}
		if !bytes.Equal(plainCk, obsCk) {
			t.Fatalf("workers=%d: checkpoint files differ with instrumentation on:\n%s\nvs\n%s", workers, plainCk, obsCk)
		}

		// The instrumentation must also have actually recorded the run:
		// identical results with empty sinks would prove nothing.
		if got := metricValue(reg, "sweep_points_total"); got != float64(len(plainRes.Points)) {
			t.Fatalf("workers=%d: sweep_points_total = %v, want %d", workers, got, len(plainRes.Points))
		}
		if got := metricValue(reg, "sweep_trials_total"); got != float64(len(plainRes.Points)*g.Trials) {
			t.Fatalf("workers=%d: sweep_trials_total = %v, want %d", workers, got, len(plainRes.Points)*g.Trials)
		}
		h, m := cache.Stats()
		if h+m == 0 {
			t.Fatalf("workers=%d: law cache saw no lookups", workers)
		}
		if got := metricValue(reg, "lawcache_hits_total"); got != float64(h) {
			t.Fatalf("workers=%d: lawcache_hits_total = %v, want %d", workers, got, h)
		}
		// Each worker writes its own shard of the census metrics; the
		// registry must expose their sums, the same at any worker count.
		totals := censusTotals(reg)
		if totals["census_phases_total{stage=2}"] == 0 {
			t.Fatalf("workers=%d: census metrics recorded no Stage-2 phase: %v", workers, totals)
		}
		if censusAt1 == nil {
			censusAt1 = totals
		} else if !reflect.DeepEqual(totals, censusAt1) {
			t.Fatalf("workers=%d: census metric totals differ from one worker's:\n%v\nvs\n%v", workers, totals, censusAt1)
		}
		if trace.Len() == 0 {
			t.Fatalf("workers=%d: tracer emitted nothing", workers)
		}
		// Points overlap in flight, so every trial event must name the
		// point it belongs to, and each point its own trials.
		evaluated := map[float64]bool{}
		for _, pr := range plainRes.Points {
			evaluated[float64(pr.Point.Index)] = true
		}
		trialsOf := map[float64]int{}
		for i, line := range strings.Split(strings.TrimRight(trace.String(), "\n"), "\n") {
			var ev map[string]any
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("workers=%d: trace line %d is not JSON: %v\n%s", workers, i, err, line)
			}
			if ev["ev"] == "" || ev["ev"] == nil {
				t.Fatalf("workers=%d: trace line %d has no ev field: %s", workers, i, line)
			}
			if ev["ev"] == "trial" {
				p, ok := ev["point"].(float64)
				if !ok || !evaluated[p] {
					t.Fatalf("workers=%d: trial event names no point the run evaluated: %s", workers, line)
				}
				trialsOf[p]++
			}
		}
		for p := range evaluated {
			if trialsOf[p] != g.Trials {
				t.Fatalf("workers=%d: point %v has %d trial events, want %d", workers, p, trialsOf[p], g.Trials)
			}
		}
	}
}

// TestObsBisectScalingIdentity extends the write-only contract to the
// other two sweep modes (adaptive Wilson stopping and the scaling
// fit), at 8 workers where scheduling interleaves most.
func TestObsBisectScalingIdentity(t *testing.T) {
	var trace bytes.Buffer
	inst, reg := fullObs(&trace)

	b := Bisect{
		Matrix: "binary", K: 2, N: 3000, Delta: 0.02, ProtoEps: 0.4,
		Lo: 0.1, Hi: 0.3, Tol: 0.02, Trials: 40, MaxEvals: 12,
	}
	plainB, err := Runner{Seed: 5, Workers: 8}.RunBisect(b)
	if err != nil {
		t.Fatal(err)
	}
	obsB, err := Runner{Seed: 5, Workers: 8, Obs: inst}.RunBisect(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plainB, obsB) {
		t.Fatalf("instrumented bisect differs from plain:\n%+v\nvs\n%+v", plainB, obsB)
	}

	s := Scaling{
		Matrix: "uniform", K: 2, Delta: 0.1, ChannelEps: 0.3,
		Ns: []int64{1000, 10000, 100000}, Trials: 4,
	}
	plainS, err := Runner{Seed: 5, Workers: 8}.RunScaling(s)
	if err != nil {
		t.Fatal(err)
	}
	obsS, err := Runner{Seed: 5, Workers: 8, Obs: inst}.RunScaling(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plainS, obsS) {
		t.Fatalf("instrumented scaling differs from plain:\n%+v\nvs\n%+v", plainS, obsS)
	}

	wantPoints := float64(len(plainB.Evals) + len(plainS.Points))
	if got := metricValue(reg, "sweep_points_total"); got != wantPoints {
		t.Fatalf("sweep_points_total = %v, want %v", got, wantPoints)
	}
	if trace.Len() == 0 {
		t.Fatal("tracer emitted nothing")
	}
}
