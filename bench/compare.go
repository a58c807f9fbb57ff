package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// samples maps workload → metric → the values of every run.
type samples map[string]map[string][]float64

// readRuns parses a run-set file: one run per line, the workload name
// and then the run's result line, e.g.
//
//	grid-k2 {"correct":true,"attempted":…,"failed":0,"metrics":{…}}
func readRuns(path string) (samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := samples{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		name, js, ok := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		if !ok {
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(js), &res); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if out[name] == nil {
			out[name] = map[string][]float64{}
		}
		for k, m := range res.Metrics {
			out[name][k] = append(out[name][k], m.Value)
		}
	}
	return out, sc.Err()
}

// compareMain implements `bench compare BASE NEW`: for every workload
// and end-to-end metric it prints both run sets' medians and spreads
// and applies the benchmark's rule. A metric regressed when NEW's
// median is worse than BASE's by more than the bound; it is unresolved
// when either set's spread exceeds the bound, unless every NEW run
// beats every BASE run. Per-layer metrics are printed as ratios. The
// exit status is 1 when anything regressed.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASE NEW (files of \"<workload> <result line>\" lines)")
		return 2
	}
	base, err := readRuns(args[0])
	if err == nil {
		var cur samples
		if cur, err = readRuns(args[1]); err == nil {
			return compareSets(base, cur, out)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

func compareSets(base, cur samples, out io.Writer) int {
	status := 0
	for _, w := range workloads {
		b, c := base[w.name], cur[w.name]
		if b == nil || c == nil {
			continue
		}
		fmt.Fprintf(out, "%s\n", w.name)
		for _, e := range e2eMetrics {
			bv, cv := b[e.name], c[e.name]
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			worse := worsening(median(bv), median(cv), e.better)
			verdict := "ok"
			switch {
			case allBetter(bv, cv, e.better):
				verdict = "better in every run"
			case spread(bv) > e.bound || spread(cv) > e.bound:
				verdict = "unresolved: spread above the bound"
			case !withinBound(median(bv), median(cv), e.bound, e.better):
				verdict = "REGRESSION"
				status = 1
			}
			fmt.Fprintf(out, "  %-22s base %-12.6g (IQR %5.1f%%, n=%d)  new %-12.6g (IQR %5.1f%%, n=%d)  worse by %+6.1f%% (bound %.0f%%)  %s\n",
				e.name, median(bv), 100*spread(bv), len(bv), median(cv), 100*spread(cv), len(cv), 100*worse, 100*e.bound, verdict)
		}
		for _, l := range layerMetrics {
			bv, cv := b[l.name], c[l.name]
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			fmt.Fprintf(out, "  %-36s base %-12.6g new %-12.6g %s ratio %.4f\n", l.name, median(bv), median(cv), l.unit, median(cv)/median(bv))
		}
	}
	return status
}

// allBetter reports whether every value of cur beats every value of
// base.
func allBetter(base, cur []float64, better string) bool {
	bs, cs := sorted(base), sorted(cur)
	if better == "higher" {
		return cs[0] > bs[len(bs)-1]
	}
	return cs[len(cs)-1] < bs[0]
}
