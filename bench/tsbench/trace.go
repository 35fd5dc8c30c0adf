package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the spans a traced run keeps in memory; later spans
// are counted as dropped.
const maxSpans = 200_000

// tracer keeps a traced run's spans in memory until the run ends. Spans
// are recorded by the benchmark around its own calls into each layer.
type tracer struct {
	t0      time.Time
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
}

// span is one finished interval. Spans of one operation share op, the
// id of the operation's root span.
type span struct {
	name           string
	start, end     time.Time
	id, parent, op int64
	tid            int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanCtx is an open operation span. Its zero value belongs to an
// untraced run and records nothing.
type spanCtx struct {
	tr    *tracer
	id    int64
	tid   int
	start time.Time
}

// begin opens an operation span on lane tid (a client, or a probe).
func (t *tracer) begin(tid int) spanCtx {
	if t == nil {
		return spanCtx{}
	}
	return spanCtx{tr: t, id: t.ids.Add(1), tid: tid, start: time.Now()}
}

// end records the operation span under name.
func (s spanCtx) end(name string) {
	if s.tr != nil {
		s.tr.add(span{name, s.start, time.Now(), s.id, 0, s.id, s.tid})
	}
}

// child records a finished child of the operation that began at start.
func (s spanCtx) child(name string, start time.Time) {
	if s.tr != nil {
		s.tr.add(span{name, start, time.Now(), s.tr.ids.Add(1), s.id, s.id, s.tid})
	}
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// write renders the spans as Chrome trace-event JSON, openable in
// Perfetto or chrome://tracing: one thread per client or probe lane,
// times in microseconds since the tracer started.
func (t *tracer) write(path string) error {
	type args struct {
		ID     int64 `json:"id"`
		Parent int64 `json:"parent"`
		Op     int64 `json:"op"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
		Args args    `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{s.name, "X", us(s.start.Sub(t.t0)), us(s.end.Sub(s.start)), 1, s.tid, args{s.id, s.parent, s.op}}
	}
	dropped := t.dropped
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(struct {
		TraceEvents []event `json:"traceEvents"`
		Dropped     int     `json:"dropped_spans"`
	}{events, dropped})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
