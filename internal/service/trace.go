package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"sync"
	"time"
)

// Request tracing: every HTTP request gets a trace ID (generated at the
// entry node or accepted from the X-Tsnoop-Trace request header on a
// cluster forward), the service layers record wall-clock phase spans
// into the request's trace as it moves through them, and finished
// traces land in a bounded in-memory ring exposed on GET /v1/traces and
// GET /v1/traces/{id}. When a request is forwarded to its owning peer,
// the owner ships its own span list back in a response header, so the
// entry node's trace shows both sides of the hop.
//
// This is wall-clock observability of the HTTP layer only — like the
// /metrics counters it never touches the simulator, whose lifecycle
// spans live in internal/obs and simulated time.

// DefaultTraceKeep bounds the retained finished-trace history per node.
const DefaultTraceKeep = 256

// TraceSpan is one wall-clock phase of a request's life on one node.
// Starts are microsecond offsets from the trace's start, so a span list
// is meaningful without the absolute clock.
type TraceSpan struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Note    string `json:"note,omitempty"`
}

// Trace is the recorded life of one request on one node — what
// GET /v1/traces/{id} returns.
type Trace struct {
	ID string `json:"id"`
	// Node is this node's ring address; empty on a single-node service.
	Node   string    `json:"node,omitempty"`
	Method string    `json:"method"`
	Path   string    `json:"path"`
	Route  string    `json:"route"`
	Status int       `json:"status"`
	Start  time.Time `json:"start"`
	DurUS  int64     `json:"dur_us"`
	// Spans are this node's phases in recording order.
	Spans []TraceSpan `json:"spans,omitempty"`
	// RemotePeer and RemoteSpans are the owning peer's side of a
	// forwarded request, shipped back in the X-Tsnoop-Trace-Spans
	// response header and embedded here by the entry node.
	RemotePeer  string      `json:"remote_peer,omitempty"`
	RemoteSpans []TraceSpan `json:"remote_spans,omitempty"`
}

// activeTrace is a trace under construction, carried through the
// request context. Span recording is mutex-guarded: streamed requests
// fan cells across goroutines that all hold the same request context.
type activeTrace struct {
	mu    sync.Mutex
	start time.Time
	tr    Trace
}

func newActiveTrace(id, node string, method, path string, start time.Time) *activeTrace {
	return &activeTrace{
		start: start,
		tr:    Trace{ID: id, Node: node, Method: method, Path: path, Start: start.UTC()},
	}
}

// span records one phase that started at start and just ended.
func (a *activeTrace) span(name string, start time.Time, note string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.tr.Spans = append(a.tr.Spans, TraceSpan{
		Name:    name,
		StartUS: start.Sub(a.start).Microseconds(),
		DurUS:   time.Since(start).Microseconds(),
		Note:    note,
	})
	a.mu.Unlock()
}

// phases copies a job's wall-clock phase durations into the trace,
// tiled backwards from now (store_write ends now, simulate before it,
// queue_wait first). For a joined job the phases may predate this
// request — the durations are the job's, the placement approximate.
func (a *activeTrace) phases(jobID string, spans JobSpans) {
	if a == nil {
		return
	}
	end := time.Since(a.start).Microseconds()
	note := "job " + jobID
	a.mu.Lock()
	off := end - spans.StoreWriteUS - spans.SimulateUS - spans.QueueWaitUS
	if off < 0 {
		off = 0
	}
	for _, p := range []struct {
		name string
		dur  int64
	}{
		{"queue_wait", spans.QueueWaitUS},
		{"simulate", spans.SimulateUS},
		{"store_write", spans.StoreWriteUS},
	} {
		a.tr.Spans = append(a.tr.Spans, TraceSpan{Name: p.name, StartUS: off, DurUS: p.dur, Note: note})
		off += p.dur
	}
	a.mu.Unlock()
}

// setRemote attaches the owning peer's span list (the JSON value of the
// X-Tsnoop-Trace-Spans response header) to a forwarded request's trace.
// An unparsable header is dropped — remote spans are best-effort
// decoration, never a reason to fail a forward that already succeeded.
func (a *activeTrace) setRemote(peer, spansJSON string) {
	if a == nil || spansJSON == "" {
		return
	}
	var spans []TraceSpan
	if json.Unmarshal([]byte(spansJSON), &spans) != nil {
		return
	}
	a.mu.Lock()
	a.tr.RemotePeer, a.tr.RemoteSpans = peer, spans
	a.mu.Unlock()
}

// spansJSON renders this node's span list for the response header an
// owner sends back to the forwarding entry node.
func (a *activeTrace) spansJSON() string {
	if a == nil {
		return ""
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.tr.Spans) == 0 {
		return ""
	}
	data, err := json.Marshal(a.tr.Spans)
	if err != nil {
		return ""
	}
	return string(data)
}

// finish seals the trace with the response outcome and returns it.
func (a *activeTrace) finish(route string, status int, dur time.Duration) Trace {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tr.Route, a.tr.Status, a.tr.DurUS = route, status, dur.Microseconds()
	return a.tr
}

type traceCtxKey struct{}

// withTrace attaches an active trace to a request context.
func withTrace(ctx context.Context, a *activeTrace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, a)
}

// traceFrom returns the request's active trace, or nil outside an
// instrumented request (direct library use, tests, the -cache CLI path).
// Every recording helper accepts the nil receiver, so call sites never
// branch.
func traceFrom(ctx context.Context) *activeTrace {
	a, _ := ctx.Value(traceCtxKey{}).(*activeTrace)
	return a
}

// TraceID reports the request's trace ID, empty outside an instrumented
// request. The queue stamps it onto jobs so GET /v1/jobs/{id} links
// back to the submitting request's trace.
func TraceID(ctx context.Context) string {
	a := traceFrom(ctx)
	if a == nil {
		return ""
	}
	return a.tr.ID
}

// newTraceID returns a fresh 16-hex-character request trace ID.
func newTraceID() string {
	var b [8]byte
	rand.Read(b[:]) // crypto/rand.Read never fails post-Go 1.24
	return hex.EncodeToString(b[:])
}

// traceRing retains the last cap finished traces, evicting oldest: a
// circular buffer, so an add costs O(1) however full the ring is.
type traceRing struct {
	mu   sync.Mutex
	buf  []Trace        // circular once full; buf[next] is then the oldest
	next int            // slot the next add writes
	byID map[string]int // id -> slot of its newest retained trace
}

func newTraceRing(cap int) *traceRing {
	return &traceRing{buf: make([]Trace, 0, cap), byID: make(map[string]int)}
}

func (r *traceRing) add(tr Trace) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, tr)
	} else {
		// A forwarded retry can reuse an ID: the evicted trace's index
		// entry goes only if it still names this slot, not a newer trace.
		if old := r.buf[r.next].ID; r.byID[old] == r.next {
			delete(r.byID, old)
		}
		r.buf[r.next] = tr
	}
	// The latest record of an ID wins the index.
	r.byID[tr.ID] = r.next
	r.next = (r.next + 1) % cap(r.buf)
	r.mu.Unlock()
}

// get returns one trace by ID.
func (r *traceRing) get(id string) (Trace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.byID[id]
	if !ok {
		return Trace{}, false
	}
	return r.buf[i], true
}

// all snapshots the retained traces, newest first.
func (r *traceRing) all() []Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	out := make([]Trace, n)
	for i := range out {
		out[i] = r.buf[(r.next-1-i+n)%n]
	}
	return out
}
