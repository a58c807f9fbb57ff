// Command bench is the repository benchmark: it builds cmd/sweep from
// the checkout, runs one workload as real CLI invocations the way a
// user does (flags → census engine → checkpoint journal → result
// JSON), checks every output, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": …, "failed": …, "metrics": {…}}
//
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 a
// separate traced in-process pass attributes the CLI's time to the
// packages it runs through (see README.md). Run it from the checkout
// root through bench/run.sh, which keeps every build artifact under
// .bench_build:
//
//	bash bench/run.sh --workload grid-k2 --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh compare base.txt new.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// workers is the timed invocations' -workers: this benchmark's
// reference host has two cores, and it refuses to run on fewer.
const workers = 2

// config is one benchmark run's settings.
type config struct {
	root     string // checkout root holding go.mod and cmd/sweep
	tmpRoot  string // parent of the run's scratch directory
	refDir   string // directory of the <workload>.ref.json files
	seed     uint64
	seconds  float64 // how long the timed loop measures
	trace    bool
	traceOut string // NDJSON span file (traced runs), "" = none
	writeRef bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	w, cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	res, err := run(w, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (workload, config, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "workload seed: the sweep -seed of the warm-up and the traced pass, and the first of the timed loop's seeds")
	seconds := fs.Float64("seconds", 20, "how long the timed loop measures (it makes at least 4 repetitions)")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = the traced in-process pass and per-layer metrics")
	traceOut := fs.String("trace-out", "", "with --trace 1: write the recorded spans to this NDJSON file")
	writeRef := fs.Bool("write-ref", false, "write bench/testdata/<workload>.ref.json from this run's output")
	if err := fs.Parse(args); err != nil {
		return workload{}, config{}, err
	}
	if fs.NArg() > 0 {
		return workload{}, config{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, err := workloadByName(*name)
	if err != nil {
		return workload{}, config{}, err
	}
	if *trace != 0 && *trace != 1 {
		return workload{}, config{}, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 0 {
		return workload{}, config{}, fmt.Errorf("--seconds must be ≥ 0, got %v", *seconds)
	}
	return w, config{
		root:     ".",
		tmpRoot:  os.TempDir(),
		refDir:   filepath.Join("bench", "testdata"),
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		traceOut: *traceOut,
		writeRef: *writeRef,
	}, nil
}

// run builds cmd/sweep and the launcher, runs the warm-up every later
// output at its seed must reproduce byte for byte, checks it against the
// workload's reference, and then measures either the end-to-end or the
// per-layer metrics. An error means the benchmark could not run at all;
// failed checks are counted in the result instead.
func run(w workload, cfg config, log io.Writer) (result, error) {
	if n := runtime.NumCPU(); n < workers {
		return result{}, fmt.Errorf("needs at least %d CPUs for -workers %d, have %d", workers, workers, n)
	}
	fmt.Fprintf(log, "bench: workload %s, seed %d, nproc %d, GOMAXPROCS %d, %s\n",
		w.name, cfg.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	dir, err := os.MkdirTemp(cfg.tmpRoot, "bench-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	bin, launcher, err := buildTools(cfg.root, dir)
	if err != nil {
		return result{}, err
	}
	s := newSession(cfg, w, log, dir, bin, launcher)
	warm := workers
	if cfg.trace {
		warm = 1
	}
	if err := s.warmUp(warm); err != nil {
		return result{}, err
	}
	if cfg.writeRef {
		if err := s.writeReference(); err != nil {
			return result{}, err
		}
	}
	if err := s.loadReference(); err != nil {
		return result{}, err
	}
	s.checkReference(cfg.seed, s.out)
	var metrics map[string]metric
	if cfg.trace {
		metrics, err = s.layers()
	} else {
		metrics, err = s.endToEnd()
	}
	if err != nil {
		return result{}, err
	}
	return result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: metrics}, nil
}
