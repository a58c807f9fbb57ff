// Command experiments runs the paper-validation experiment suite
// (E1–E22, see DESIGN.md §3) and prints each report; with -write it
// also regenerates EXPERIMENTS.md.
//
// Examples:
//
//	experiments -run E5                 # one experiment, full size
//	experiments -run all -quick         # the whole suite, CI scale
//	experiments -run all -write         # regenerate EXPERIMENTS.md
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/gossipkit/noisyrumor/internal/core"
	"github.com/gossipkit/noisyrumor/internal/model"
	"github.com/gossipkit/noisyrumor/internal/obs"
	"github.com/gossipkit/noisyrumor/internal/sim"
	"github.com/gossipkit/noisyrumor/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		runID   = fs.String("run", "all", "experiment ID (E1…E22) or 'all'")
		seed    = fs.Uint64("seed", 20160725, "suite seed (default: PODC'16 date)")
		quick   = fs.Bool("quick", false, "CI-scale populations and trial counts")
		write   = fs.String("writefile", "", "write a markdown report to this file")
		writeMD = fs.Bool("write", false, "shorthand for -writefile EXPERIMENTS.md")
		csvDir  = fs.String("csvdir", "", "also write every result table as CSV into this directory")
		workers = fs.Int("workers", 0, "trial parallelism (0 = GOMAXPROCS)")
		backend = fs.String("backend", "",
			"sampling backend for protocol trials ("+strings.Join(model.BackendNames(), ", ")+"; empty = loop)")
		engine = fs.String("engine", "",
			"communication engine for protocol trials ("+strings.Join(model.ProcessNames(), ", ")+"; empty = O; census runs trials on the n-independent aggregate engine)")
		threads = fs.Int("threads", 0,
			"intra-phase worker count for the parallel backend (0 = GOMAXPROCS)")
		lawQuant = fs.Float64("law-quant", 0,
			"census Stage-2 law quantization step η for census-engine trials, incl. the sweep-driven E21/E22 (0 = exact; try 1e-3; the law-level certificate ℓ·d_TV·sens is charged into every budget)")
		censusTol = fs.Float64("census-tol", 0,
			"census Stage-2 truncation tolerance override for census-engine trials (0 = the engine default 1e-13)")
		metricsAddr = fs.String("metrics-addr", "",
			"serve GET /metrics (Prometheus text), /metrics.json, /healthz and /debug/pprof on this host:port while the suite runs (port 0 picks a free port; the bound address is printed). Write-only telemetry: results are bit-identical with or without it")
		traceOut = fs.String("trace-out", "",
			"write NDJSON phase-trace events (census phases, law-cache lookups, trials, points, checkpoint writes) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if _, err := model.BackendByName(*backend); err != nil {
		return err
	}
	proc, err := model.ProcessByName(*engine)
	if err != nil {
		return err
	}
	if *threads < 0 {
		return fmt.Errorf("-threads must be ≥ 0, got %d", *threads)
	}

	var exps []sim.Experiment
	if strings.EqualFold(*runID, "all") {
		exps = sim.Registry()
	} else {
		e, ok := sim.ByID(*runID)
		if !ok {
			return fmt.Errorf("unknown experiment %q (have E1…E22)", *runID)
		}
		exps = []sim.Experiment{e}
	}

	// Reject contradictory flag combinations instead of silently
	// ignoring the losing flag. The census knobs reach census-engine
	// trials only: protocol trials under -engine census, and the
	// sweep-driven E21/E22 (census regardless of -engine, unless an
	// explicit -engine override signals per-node intent).
	sweepDriven := false
	for _, e := range exps {
		if e.ID == "E21" || e.ID == "E22" {
			sweepDriven = true
			break
		}
	}
	if err := core.CheckEngineFlags(set, proc == model.ProcessCensus, sweepDriven && !set["engine"], *backend); err != nil {
		return err
	}

	cfg := sim.Config{Seed: *seed, Quick: *quick, Workers: *workers, Backend: *backend, Engine: *engine,
		Threads: *threads, LawQuant: *lawQuant, CensusTol: *censusTol}
	// Open the sinks only once the invocation is valid, so a rejected
	// one leaves an existing -trace-out file untouched.
	sinks, err := obs.Open(*metricsAddr, *traceOut, 0, out)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sinks.Close(); err == nil {
			err = cerr
		}
	}()
	if sinks != nil {
		cfg.Obs = sweep.NewInstrumentation(sinks.Registry, sinks.Tracer, obs.WallClock{})
	}

	var reports []*sim.Report
	for _, e := range exps {
		start := time.Now()
		rep, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(out, rep.Text())
		fmt.Fprintf(out, "(%s finished in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		reports = append(reports, rep)
	}

	path := *write
	if *writeMD && path == "" {
		path = "EXPERIMENTS.md"
	}
	if path != "" {
		if err := writeMarkdown(path, cfg, reports); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", path)
	}
	if *csvDir != "" {
		n, err := writeCSVs(*csvDir, reports)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d CSV tables to %s\n", n, *csvDir)
	}
	return nil
}

// writeCSVs dumps every table of every report as
// <dir>/<id>_<index>.csv and returns how many files were written.
func writeCSVs(dir string, reports []*sim.Report) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	written := 0
	for _, r := range reports {
		for i, t := range r.Tables {
			name := fmt.Sprintf("%s_%d.csv", strings.ToLower(r.ID), i)
			if err := os.WriteFile(filepath.Join(dir, name), []byte(t.CSV()), 0o644); err != nil {
				return written, err
			}
			written++
		}
	}
	return written, nil
}

func writeMarkdown(path string, cfg sim.Config, reports []*sim.Report) error {
	var b strings.Builder
	b.WriteString("# EXPERIMENTS — paper vs. measured\n\n")
	b.WriteString("Reproduction record for *Noisy Rumor Spreading and Plurality Consensus*\n")
	b.WriteString("(Fraigniaud & Natale, PODC 2016). The paper is a theory paper with no\n")
	b.WriteString("tables or figures of its own; each experiment below validates one of its\n")
	b.WriteString("claims (theorem, lemma, worked example or appendix discussion) against\n")
	b.WriteString("simulation or exact computation. See DESIGN.md §3 for the experiment\n")
	b.WriteString("index and the expected shapes.\n\n")
	fmt.Fprintf(&b, "Generated by `go run ./cmd/experiments -run all%s -seed %d -write`.\n\n",
		map[bool]string{true: " -quick", false: ""}[cfg.Quick], cfg.Seed)
	for _, r := range reports {
		b.WriteString(r.Markdown())
		b.WriteString("\n---\n\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
