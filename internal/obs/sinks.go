package obs

import (
	"fmt"
	"io"
	"os"
	"time"
)

// Sinks are a CLI run's observability sinks: the registry a metrics
// listener serves, and the NDJSON tracer, nil without -trace-out (a
// nil *Tracer is a no-op).
type Sinks struct {
	Registry *Registry
	Tracer   *Tracer
	srv      *Server
	trace    *os.File
	linger   time.Duration
}

// Open builds the sinks a CLI's -metrics-addr and -trace-out flags ask
// for: it creates the trace file, traced on the WallClock, then binds
// the listener and prints its address to out. With both flags empty it
// returns nil, so a plain run keeps the zero instrumentation and reads
// no clock. If the listen fails, the trace file it created is closed
// again. Close the sinks after the run; linger keeps the listener up
// that long first.
func Open(metricsAddr, traceOut string, linger time.Duration, out io.Writer) (*Sinks, error) {
	if metricsAddr == "" && traceOut == "" {
		return nil, nil
	}
	s := &Sinks{Registry: NewRegistry(), linger: linger}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return nil, fmt.Errorf("-trace-out: %w", err)
		}
		s.trace, s.Tracer = f, NewTracer(f, WallClock{})
	}
	if metricsAddr != "" {
		srv, err := Serve(metricsAddr, s.Registry)
		if err != nil {
			_ = s.Close()
			return nil, err
		}
		s.srv = srv
		fmt.Fprintf(out, "metrics: serving on %s\n", srv.Addr())
	}
	return s, nil
}

// Close lingers if asked, stops the listener and closes the trace
// file. It returns the first error the tracer hit writing the trace,
// else the file's close error, so a run whose trace was lost fails
// instead of exiting as if it were whole. A nil *Sinks is a no-op.
func (s *Sinks) Close() error {
	if s == nil {
		return nil
	}
	if s.srv != nil {
		if s.linger > 0 {
			time.Sleep(s.linger)
		}
		_ = s.srv.Close()
	}
	if s.trace == nil {
		return nil
	}
	err := s.Tracer.Err()
	if cerr := s.trace.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("-trace-out: %w", err)
	}
	return nil
}
