package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

const (
	// Every repetition of a timed run measures a new input: rep i runs
	// the sweep at seed S + i·seedStride. One seed's trajectories decide
	// how many expensive near-tie Stage-2 phases a k ≥ 3 run meets (the
	// top 1% of its phases hold ~40% of its time), so on grid-k35-quant
	// one seed's CPU time differs from another's by up to 50%; a median
	// over a fresh seed per repetition varies much less from run to run
	// than one over a few seeds taken in turn.
	seedStride = 1_000_000
	// minReps is the fewest repetitions a timed run makes, however
	// short --seconds is.
	minReps = 4
	// refChecks is how many of a run's seeds are tested against the
	// workload's reference. Each test may fire falsely with probability
	// familyAlpha, so their number per run stays fixed as --seconds
	// grows.
	refChecks = 4
	// hostRefNominalMS is hostRefMS's typical reading on the defining
	// host (see README.md). A run scales its timings by this over the
	// median of its own readings, so they read as CPU seconds on a host
	// as fast as that one typically was.
	hostRefNominalMS = 170
	// resumesPerRep is how many set-up invocations follow each timed
	// one: setup_s is their median, so it needs more samples than the
	// few-millisecond process starts it times would get one per rep.
	resumesPerRep = 3
)

// instance is one input of the timed loop: a sweep seed, and the first
// output at it, which every later invocation at that seed must
// reproduce byte for byte.
type instance struct {
	seed  uint64
	check bool // test the first output against the workload's reference
	ref   []byte
	out   outcome
}

// session is one benchmark run's state.
type session struct {
	cfg     config
	w       workload
	log     io.Writer
	dir     string      // scratch directory, removed at the end
	bin     string      // the built cmd/sweep
	launch  string      // the built launcher (bench/launch)
	journal string      // the warm-up's complete checkpoint journal
	inst    []*instance // inst[i] is at seed S + i·seedStride
	ref     []byte      // inst[0].ref, the warm-up's output
	out     outcome     // inst[0].out
	want    reference   // the workload's reference outcome

	attempted, failed int // points
}

func newSession(cfg config, w workload, log io.Writer, dir, bin, launch string) *session {
	s := &session{cfg: cfg, w: w, log: log, dir: dir, bin: bin, launch: launch, journal: filepath.Join(dir, "warm.ck")}
	s.instance(0)
	return s
}

// instance returns the run's i-th input, adding inputs up to it on
// first use.
func (s *session) instance(i int) *instance {
	for j := len(s.inst); j <= i; j++ {
		s.inst = append(s.inst, &instance{seed: s.cfg.seed + uint64(j)*seedStride, check: j < refChecks})
	}
	return s.inst[i]
}

// fail records a failed check that cost the given number of points.
func (s *session) fail(points int, format string, args ...any) {
	s.failed += points
	fmt.Fprintf(s.log, "FAIL: "+format+"\n", args...)
}

// cliArgs is the workload's command line at seed.
func (s *session) cliArgs(seed uint64, workers int, checkpoint string) []string {
	return append(s.w.args(seed), "-workers", strconv.Itoa(workers), "-checkpoint", checkpoint)
}

// warmUp runs the untimed invocation at the run's seed. Its output is
// the reference every timed, resumed and in-process run at that seed
// must reproduce byte for byte, and its journal is the complete one the
// in-process resumes read. A traced run takes it at -workers 1, so its
// -workers 2 invocations also check that results are bit-identical at
// any worker count; a timed run takes it at -workers 2, at half the
// cost.
func (s *session) warmUp(workers int) error {
	in := s.inst[0]
	run, err := runCLI(s.launch, s.bin, s.cliArgs(in.seed, workers, s.journal), filepath.Join(s.dir, "warm.json"))
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if in.out, err = s.w.parse(run.out); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	in.ref = run.out
	s.ref, s.out = in.ref, in.out
	s.attempted += len(s.out.points)
	fmt.Fprintf(s.log, "warm-up (-workers %d): %d points, %d trials, %.3f s\n", workers, len(s.out.points), s.out.trials(), run.wall)
	return nil
}

// invoke runs the workload's CLI at in's seed. The first output at a
// seed is checked against the workload's reference and kept; every
// later one must equal it. A failure fails every point of the
// invocation.
func (s *session) invoke(what string, in *instance, workers int, checkpoint string) (cliRun, bool) {
	n := len(s.out.points)
	s.attempted += n
	run, err := runCLI(s.launch, s.bin, s.cliArgs(in.seed, workers, checkpoint), filepath.Join(s.dir, "out.json"))
	if err != nil {
		s.fail(n, "%s: %v", what, err)
		return run, false
	}
	if in.ref == nil {
		out, err := s.w.parse(run.out)
		if err != nil {
			s.fail(n, "%s: %v", what, err)
			return run, false
		}
		in.ref, in.out = run.out, out
		if in.check {
			s.checkReference(in.seed, out)
		}
		return run, true
	}
	if !bytes.Equal(run.out, in.ref) {
		s.fail(n, "%s: output differs from the first at seed %d", what, in.seed)
		return run, false
	}
	return run, true
}

// removeJournal deletes a rep's checkpoint so the next rep starts
// fresh.
func removeJournal(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// endToEnd is the --trace 0 run: timed -workers 2 invocations in a
// closed loop, one child at a time and each at a new seed, each
// followed by resumes from its complete journal, until minReps ran and
// --seconds have passed.
//
// The timings are the child's CPU seconds (user + system), not its wall
// time: on a shared virtual host a run's wall time follows how often the
// hypervisor deschedules it, which swings by up to 2× from one minute to
// the next, while its CPU time excludes that wait. CPU time still moves
// with what shares the cores and caches, so it is scaled by the host
// reference kernel, sampled before every invocation (hostRefNominalMS).
// The raw CPU and wall times are printed beside them.
func (s *session) endToEnd() (map[string]metric, error) {
	var cpus, walls, rss, setups, setupWalls, hostRefs, budgets []float64
	ck := filepath.Join(s.dir, "rep.ck")
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start).Seconds() < s.cfg.seconds; rep++ {
		in := s.instance(rep)
		what := fmt.Sprintf("rep %d (seed %d)", rep, in.seed)
		// j = 0 is the timed run, then the resumes; the host reference
		// is sampled before each, so it sees the host the run sees.
		for j := 0; j <= resumesPerRep; j++ {
			ref, err := hostRefMS()
			if err != nil {
				return nil, err
			}
			hostRefs = append(hostRefs, ref)
			if j > 0 {
				what = fmt.Sprintf("rep %d (seed %d) resume %d", rep, in.seed, j)
			}
			run, ok := s.invoke(what, in, workers, ck)
			if !ok {
				break
			}
			if j == 0 {
				if math.IsNaN(run.rssMB) {
					return nil, fmt.Errorf("%s: peak RSS is not above the launcher's, so it is not measured", what)
				}
				cpus = append(cpus, run.cpu)
				walls = append(walls, run.wall)
				rss = append(rss, run.rssMB)
			} else {
				setups = append(setups, run.cpu)
				setupWalls = append(setupWalls, run.wall)
			}
		}
		if err := removeJournal(ck); err != nil {
			return nil, err
		}
	}
	if len(cpus) == 0 || len(setups) == 0 {
		return nil, errors.New("no timed invocation succeeded")
	}
	for _, in := range s.inst {
		if in.ref != nil {
			budgets = append(budgets, in.out.budget)
		}
	}
	m := map[string]metric{}
	trials := s.out.trials()
	ref := median(hostRefs)
	scale := hostRefNominalMS / ref
	cpu := median(cpus) * scale
	fmt.Fprintf(s.log, "info: raw cpu_s = %.6g s (%s)\n", median(cpus), sampleNote(cpus))
	fmt.Fprintf(s.log, "info: raw setup_s = %.6g s (%s)\n", median(setups), sampleNote(setups))
	s.put(m, "cpu_s", cpu, "s", fmt.Sprintf("child user+system at reference speed (× %.4f), a new seed per rep", scale))
	s.put(m, "trials_per_cpu_s", float64(trials)/cpu, "trials/s", fmt.Sprintf("%d trials / cpu_s", trials))
	s.put(m, "setup_s", median(setups)*scale, "s", "child CPU of a resume from the complete journal, at reference speed")
	s.put(m, "peak_rss_mb", median(rss), "MB", "child ru_maxrss; "+sampleNote(rss))
	s.put(m, "error_budget", median(budgets), "probability", "the results' total Lemma-3 budget; "+sampleNote(budgets))
	fmt.Fprintf(s.log, "info: wall = %.4f s (%s), resume wall = %.4f s (%s)\n",
		median(walls), sampleNote(walls), median(setupWalls), sampleNote(setupWalls))
	fmt.Fprintf(s.log, "info: bench.host_ref_ms = %.4f ms (%s)\n", ref, sampleNote(hostRefs))
	return m, nil
}

// put records a metric and prints it by name with its unit.
func (s *session) put(m map[string]metric, name string, v float64, unit, note string) {
	m[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(s.log, "%-36s = %.6g %s", name, v, unit)
	if note != "" {
		fmt.Fprintf(s.log, "  (%s)", note)
	}
	fmt.Fprintln(s.log)
}

// sampleNote describes a timing's samples: count, spread and tail.
func sampleNote(xs []float64) string {
	if len(xs) < 2 {
		return fmt.Sprintf("n=%d", len(xs))
	}
	note := fmt.Sprintf("median of n=%d, IQR %.1f%%", len(xs), 100*spread(xs))
	if t, p := tail(xs); p > 50 {
		note += fmt.Sprintf(", p%s %.4g", fmtFloat(p), t)
	}
	return note
}
