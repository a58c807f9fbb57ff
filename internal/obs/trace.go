package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// A Field is one key/value pair attached to a trace event.
type Field struct {
	Key string
	Val any
}

// F builds a Field.
func F(key string, val any) Field { return Field{Key: key, Val: val} }

// A Tracer emits NDJSON phase-trace events: one JSON object per line,
// keys sorted (encoding/json sorts map keys), written under a mutex so
// concurrent workers never interleave partial lines. Timestamps come
// from the injected Clock (ts_ns, monotonic origin); with a nil Clock
// every ts_ns is 0, but events still flow — the trace stream stays
// structurally useful in deterministic runs.
//
// A nil *Tracer is a no-op everywhere, so instrumented layers carry an
// optional tracer without guarding each call site.
type Tracer struct {
	mu    sync.Mutex
	w     io.Writer
	clock Clock
	err   error // first write error; subsequent events are dropped
}

// NewTracer returns a tracer writing NDJSON to w, timestamping with
// clock (nil clock → ts_ns 0). A nil w returns a nil tracer.
func NewTracer(w io.Writer, clock Clock) *Tracer {
	if w == nil {
		return nil
	}
	return &Tracer{w: w, clock: clock}
}

// Event emits one event line: {"ev":ev,"ts_ns":...,fields...}.
func (t *Tracer) Event(ev string, fields ...Field) {
	if t == nil {
		return
	}
	t.emit(ev, fields)
}

func (t *Tracer) emit(ev string, fields []Field) {
	m := make(map[string]any, len(fields)+2)
	m["ev"] = ev
	m["ts_ns"] = Now(t.clock)
	for _, f := range fields {
		m[f.Key] = f.Val
	}
	line, err := json.Marshal(m)
	if err != nil {
		return // unmarshalable field value; drop the event, not the run
	}
	line = append(line, '\n')
	t.mu.Lock()
	if t.err == nil {
		_, t.err = t.w.Write(line)
	}
	t.mu.Unlock()
}

// Err returns the first write error the tracer hit, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
