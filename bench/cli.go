package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// buildTools compiles cmd/sweep from the checkout at root, and the
// launcher (bench/launch) from the benchmark's own module, into dir, and
// returns both binaries' paths.
func buildTools(root, dir string) (sweep, launcher string, err error) {
	if dir, err = filepath.Abs(dir); err != nil {
		return "", "", err
	}
	sweep, launcher = filepath.Join(dir, "sweep"), filepath.Join(dir, "launch")
	for _, b := range []struct{ dir, out, pkg string }{
		{root, sweep, "./cmd/sweep"},
		{filepath.Join(root, "bench"), launcher, "./launch"},
	} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Dir = b.dir
		var stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stderr, &stderr
		if err := cmd.Run(); err != nil {
			return "", "", fmt.Errorf("build %s in %s: %w\n%s", b.pkg, b.dir, err, stderr.Bytes())
		}
	}
	return sweep, launcher, nil
}

// cliRun is one finished cmd/sweep invocation.
type cliRun struct {
	wall  float64 // seconds from start until the process exited, its result file written
	cpu   float64 // child user+system seconds
	rssMB float64 // child peak resident set (ru_maxrss), MiB; NaN if not above the launcher's
	out   []byte  // the result file
}

// runCLI runs bin with args through the launcher, its standard output
// redirected to outPath the way a user saves a -json result, and waits
// for it to exit. A peak RSS that does not lie above the launcher's own
// is the launcher's, not the child's (see bench/launch), and reads NaN.
func runCLI(launcher, bin string, args []string, outPath string) (cliRun, error) {
	cmd := exec.Command(launcher, append([]string{outPath, bin}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return cliRun{}, fmt.Errorf("sweep %s: %w: %s", strings.Join(args, " "), err, bytes.TrimSpace(stderr.Bytes()))
	}
	f := strings.Fields(stdout.String())
	if len(f) != 4 {
		return cliRun{}, fmt.Errorf("launcher report %q: want 4 fields", stdout.String())
	}
	var v [4]float64
	for i, s := range f {
		x, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return cliRun{}, fmt.Errorf("launcher report %q: %w", stdout.String(), err)
		}
		v[i] = x
	}
	out, err := os.ReadFile(outPath)
	if err != nil {
		return cliRun{}, err
	}
	run := cliRun{wall: v[0], cpu: v[1], rssMB: v[2] / 1024, out: out}
	if v[2] <= v[3] {
		run.rssMB = math.NaN()
	}
	return run, nil
}
