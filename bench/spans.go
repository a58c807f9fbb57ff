package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call (the program itself carries no spans).
// Parent is the causing span's id, -1 for a root.
type span struct {
	id, parent int32
	name       string
	start, end int64 // ns since the tracer started
}

// tracer keeps spans in memory; write dumps them as NDJSON at the end
// of the run, so recording costs one clock read and one append.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: t.now()})
	return id
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int32) float64 {
	s := &t.spans[id]
	s.end = t.now()
	return time.Duration(s.end - s.start).Seconds()
}

// write dumps every span to path, one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
