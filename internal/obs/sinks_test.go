package obs

import (
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestOpenWithoutFlags: with neither flag set there are no sinks, and
// closing the nil result is a no-op.
func TestOpenWithoutFlags(t *testing.T) {
	s, err := Open("", "", time.Second, io.Discard)
	if s != nil || err != nil {
		t.Fatalf("Open(\"\", \"\") = %v, %v; want nil, nil", s, err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("nil Sinks Close = %v", err)
	}
}

// TestOpenListenFailureClosesTrace: when the listener cannot bind,
// Open returns the listen error and closes the trace file it created.
func TestOpenListenFailureClosesTrace(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "trace.ndjson")
	s, err := Open(ln.Addr().String(), path, 0, io.Discard)
	if s != nil || err == nil || !strings.Contains(err.Error(), "listen") {
		t.Fatalf("Open on a bound address = %v, %v; want nil and the listen error", s, err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd to list open files")
	}
	for _, fd := range fds {
		if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); target == path {
			t.Fatalf("trace file still open as fd %s", fd.Name())
		}
	}
}
