// Command noisyrumor runs a single noisy rumor-spreading or plurality-
// consensus simulation and prints the outcome (optionally with the
// full per-phase trace).
//
// Examples:
//
//	noisyrumor -n 10000 -k 4 -eps 0.25 -seed 1
//	noisyrumor -n 10000 -k 3 -eps 0.2 -counts 600,500,400 -trace
//	noisyrumor -n 5000 -k 3 -eps 0.1 -matrix cycle
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/gossipkit/noisyrumor"
	"github.com/gossipkit/noisyrumor/internal/checked"
	"github.com/gossipkit/noisyrumor/internal/core"
	"github.com/gossipkit/noisyrumor/internal/model"
	"github.com/gossipkit/noisyrumor/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine is the stderr line of a failed run: the error behind exactly
// one "noisyrumor: ". The facade's errors carry that prefix already; the
// command's own and the flag package's do not.
func errorLine(err error) string {
	msg := err.Error()
	if strings.HasPrefix(msg, "noisyrumor: ") {
		return msg
	}
	return "noisyrumor: " + msg
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("noisyrumor", flag.ContinueOnError)
	var (
		n        = fs.Int64("n", 10000, "number of agents (the census engine accepts n ≥ 10⁹)")
		k        = fs.Int("k", 3, "number of opinions")
		eps      = fs.Float64("eps", 0.25, "noise parameter ε")
		seed     = fs.Uint64("seed", 1, "random seed")
		trace    = fs.Bool("trace", false, "print the per-phase trace")
		matrix   = fs.String("matrix", "uniform", "noise matrix: uniform | binary | identity | cycle | reset")
		counts   = fs.String("counts", "", "comma-separated initial opinion counts (plurality consensus); empty = rumor spreading from one source")
		correct  = fs.Int("correct", 0, "the source's opinion (rumor spreading only)")
		engine   = fs.String("engine", "", "communication engine: "+strings.Join(noisyrumor.Engines(), " | ")+" (empty = O; census is the n-independent aggregate engine)")
		backend  = fs.String("backend", "", "sampling backend: "+strings.Join(noisyrumor.Backends(), " | ")+" (empty = loop; census engine ignores it)")
		threads  = fs.Int("threads", 0, "intra-phase worker count for the parallel backend (0 = GOMAXPROCS)")
		lawQuant = fs.Float64("law-quant", 0,
			"census Stage-2 law quantization step η: memoize the majority law on the η-lattice, charging the law-level certificate ℓ·d_TV·sens per phase into the error budget (0 = exact; try 1e-3; census engine only)")
		censusTol = fs.Float64("census-tol", 0,
			"census Stage-2 truncation tolerance override (0 = the engine default 1e-13; census engine only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	proc, err := model.ProcessByName(*engine)
	if err != nil {
		return err
	}
	// Reject contradictory flag combinations instead of silently
	// ignoring the losing flag.
	if err := core.CheckEngineFlags(set, proc == noisyrumor.ProcessCensus, false, *backend); err != nil {
		return err
	}
	if set["correct"] && set["counts"] {
		return errors.New("-correct applies to rumor spreading only: with -counts the plurality opinion of the counts is the correct outcome; drop one of the two flags")
	}
	nm, err := sweep.BuildMatrix(*matrix, *k, *eps)
	if err != nil {
		return err
	}
	params := noisyrumor.DefaultParams(*eps)
	params.Backend = *backend
	params.Threads = *threads
	params.LawQuant = *lawQuant
	params.CensusTol = *censusTol
	cfg := noisyrumor.Config{
		N:      *n,
		Noise:  nm,
		Params: params,
		Seed:   *seed,
		Trace:  *trace,
		Engine: proc,
	}
	header := fmt.Sprintf("n=%d k=%d ε=%v matrix=%s engine=%v seed=%d", *n, nm.K(), *eps, *matrix, proc, *seed)

	if proc == noisyrumor.ProcessCensus {
		return runCensus(cfg, nm, *counts, *correct, header, *trace, out)
	}

	var res noisyrumor.Result
	if *counts == "" {
		res, err = noisyrumor.RumorSpreading(cfg, noisyrumor.Opinion(*correct))
	} else {
		var cs []int64
		cs, err = parseCounts(*counts)
		if err != nil {
			return err
		}
		if len(cs) != nm.K() {
			return fmt.Errorf("%d counts for k=%d", len(cs), nm.K())
		}
		narrow := make([]int, len(cs))
		for i, v := range cs {
			w, ok := checked.Int(v)
			if !ok {
				return fmt.Errorf("count %d exceeds the per-node engines' range; use -engine census", v)
			}
			narrow[i] = w
		}
		res, err = noisyrumor.PluralityConsensus(cfg, narrow)
	}
	if err != nil {
		return err
	}

	fmt.Fprintln(out, header)
	fmt.Fprintf(out, "consensus=%v winner=%d correct=%v rounds=%d (first all-correct: %d)\n",
		res.Consensus, res.Winner, res.Correct, res.Rounds, res.FirstAllCorrect)
	fmt.Fprintf(out, "memory: max phase counter %d → %d bits of counters per node\n",
		res.MaxCounter, res.MemoryBits)
	if *trace {
		fmt.Fprintln(out, "\nphase trace (stage/phase, rounds, opinionated, bias toward correct):")
		for _, ph := range res.Trace {
			fmt.Fprintf(out, "  s%d p%-3d rounds=%-6d opinionated=%-8d bias=%+.4f\n",
				ph.Stage, ph.Phase, ph.Rounds, ph.Opinionated, ph.Bias)
		}
	}
	return nil
}

// runCensus is the aggregate-engine path: it calls the facade's
// RunCensus directly (rather than the Result-typed wrappers) so the
// run's accumulated Lemma-3 budget — truncation plus the law-level
// quantization leg — is available to print next to the outcome, as
// DESIGN §2 promises.
func runCensus(cfg noisyrumor.Config, nm *noisyrumor.NoiseMatrix,
	counts string, correct int, header string, trace bool, out io.Writer) error {

	var cs []int64
	var correctOp noisyrumor.Opinion
	if counts == "" {
		if correct < 0 || correct >= nm.K() {
			return fmt.Errorf("source opinion %d out of range [0,%d)", correct, nm.K())
		}
		correctOp = noisyrumor.Opinion(correct)
		cs = make([]int64, nm.K())
		cs[correctOp] = 1
	} else {
		var err error
		cs, err = parseCounts(counts)
		if err != nil {
			return err
		}
		if len(cs) != nm.K() {
			return fmt.Errorf("%d counts for k=%d", len(cs), nm.K())
		}
		var strict bool
		correctOp, strict = core.Plurality(cs)
		if !strict {
			return fmt.Errorf("initial counts %v have no strict plurality", cs)
		}
	}
	res, err := noisyrumor.RunCensus(cfg, cs, correctOp)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, header)
	fmt.Fprintf(out, "consensus=%v winner=%d correct=%v rounds=%d (first all-correct: %d)\n",
		res.Consensus, res.Winner, res.Correct, res.Rounds, res.FirstAllCorrect)
	fmt.Fprintln(out, "memory: census engine tracks the aggregate opinion census only (no per-node counters)")
	fmt.Fprintf(out, "error budget: %.3e (accumulated Lemma-3 mass of the run, of which %.3e is the law-level quantization leg; see DESIGN §2)\n",
		res.ErrorBudget, res.QuantBudget)
	if trace {
		fmt.Fprintln(out, "\nphase trace (stage/phase, rounds, opinionated, bias toward correct, accumulated budget with quant leg):")
		for _, ph := range res.Trace {
			fmt.Fprintf(out, "  s%d p%-3d rounds=%-6d opinionated=%-8d bias=%+.4f budget=%.3e quant=%.3e\n",
				ph.Stage, ph.Phase, ph.Rounds, ph.Opinionated, ph.Bias, ph.ErrorBudget, ph.QuantBudget)
		}
	}
	return nil
}

func parseCounts(s string) ([]int64, error) {
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad count %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
