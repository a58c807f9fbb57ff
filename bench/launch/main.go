// Command launch starts one program and reports its resource use. The
// benchmark starts every cmd/sweep invocation through it:
//
//	launch OUT BIN [ARGS…]
//
// runs BIN ARGS… with standard output to the file OUT, waits for it, and
// prints one line of four numbers: the child's wall seconds, its CPU
// seconds (user + system), its peak RSS in KiB (ru_maxrss), and the
// launcher's own peak RSS in KiB when it started the child. It exits 1,
// printing nothing on standard output, if the child could not start or
// did not exit 0.
//
// Why a separate, small program: Go starts children with vfork, and
// Linux carries the parent's peak RSS into the child's ru_maxrss at
// exec. A child of the benchmark process would appear to peak at least
// as high as the benchmark's own heap; a child of this launcher peaks
// at least as high as the launcher, about 2 MiB. The benchmark checks
// that every reading it uses lies above that floor. The launcher
// imports only what it needs, to keep the floor low.
package main

import (
	"bytes"
	"errors"
	"os"
	"strconv"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) < 3 {
		fail("usage: launch OUT BIN [ARGS…]")
	}
	hwm, err := peakRSSKiB()
	if err != nil {
		fail(err.Error())
	}
	out, err := os.Create(os.Args[1])
	if err != nil {
		fail(err.Error())
	}
	bin := os.Args[2]
	t0 := time.Now()
	pid, err := syscall.ForkExec(bin, os.Args[2:], &syscall.ProcAttr{
		Env:   os.Environ(),
		Files: []uintptr{os.Stdin.Fd(), out.Fd(), os.Stderr.Fd()},
	})
	if err != nil {
		fail("start " + bin + ": " + err.Error())
	}
	var ws syscall.WaitStatus
	var ru syscall.Rusage
	for {
		_, err = syscall.Wait4(pid, &ws, 0, &ru)
		if err != syscall.EINTR {
			break
		}
	}
	wall := time.Since(t0)
	if err != nil {
		fail("wait for " + bin + ": " + err.Error())
	}
	if err := out.Close(); err != nil {
		fail(err.Error())
	}
	switch {
	case ws.Signaled():
		fail(bin + " killed by " + ws.Signal().String())
	case ws.ExitStatus() != 0:
		fail(bin + " exited with status " + strconv.Itoa(ws.ExitStatus()))
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	os.Stdout.WriteString(strconv.FormatFloat(wall.Seconds(), 'g', -1, 64) + " " +
		strconv.FormatFloat(cpu.Seconds(), 'g', -1, 64) + " " +
		strconv.FormatInt(ru.Maxrss, 10) + " " + // Linux reports KiB
		strconv.FormatInt(hwm, 10) + "\n")
}

// peakRSSKiB is this process's peak resident set so far (VmHWM), KiB.
func peakRSSKiB() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			return strconv.ParseInt(string(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte(" kB"))), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func fail(msg string) {
	os.Stderr.WriteString("launch: " + msg + "\n")
	os.Exit(1)
}
