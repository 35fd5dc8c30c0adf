package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tsnoop/internal/spec"
	"tsnoop/internal/stats"
)

// Every response — success, 400, 404, and the 429 shed path — carries
// an X-Tsnoop-Trace ID and produces exactly one access-log record with
// that ID and the response status. The wrapper discipline (instrument
// wraps the whole mux, handlers never log) is what this pins: no
// response class may skip the log or log twice.
func TestTraceEveryResponseLoggedOnce(t *testing.T) {
	gate := make(chan struct{})
	var gated atomic.Bool
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		if gated.Load() {
			<-gate
		}
		return &stats.Run{Runtime: 9}, nil
	}
	var logBuf bytes.Buffer
	sv, err := New(Config{
		Workers:  2,
		Sim:      sim,
		MaxCells: 1,
		Logger:   slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(sv))
	t.Cleanup(srv.Close)
	runBody := spec.New("barnes", spec.WithNodes(4), spec.WithQuota(50)).JSON()

	type probe struct {
		trace  string
		status int
	}
	var want []probe
	record := func(resp *http.Response, wantStatus int) {
		t.Helper()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
		}
		id := resp.Header.Get("X-Tsnoop-Trace")
		if len(id) != 16 {
			t.Fatalf("X-Tsnoop-Trace = %q, want a 16-hex-char ID", id)
		}
		want = append(want, probe{id, wantStatus})
	}

	record(postJSON(t, srv.URL+"/v1/runs", runBody), http.StatusOK)
	record(postJSON(t, srv.URL+"/v1/runs", []byte(`{"benchmark":"nope"}`)), http.StatusBadRequest)
	resp, err := http.Get(srv.URL + "/nosuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	record(resp, http.StatusNotFound)

	// Occupy the one-cell budget with a gated grid, then shed a second.
	gated.Store(true)
	gridDone := make(chan struct{})
	go func() {
		defer close(gridDone)
		resp, err := http.Post(srv.URL+"/v1/grids", "application/json", bytes.NewReader(runBody))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	for i := 0; sv.ShedStats().Inflight == 0; i++ {
		if i > 500 {
			t.Fatal("grid never occupied the budget")
		}
		time.Sleep(2 * time.Millisecond)
	}
	record(postJSON(t, srv.URL+"/v1/grids", runBody), http.StatusTooManyRequests)
	close(gate)
	<-gridDone

	// Parse the access log: one record per trace ID, statuses matching.
	logged := map[string]probe{}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec struct {
			Msg    string `json:"msg"`
			Status int    `json:"status"`
			Trace  string `json:"trace"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparsable log line %q: %v", line, err)
		}
		if rec.Msg != "request" {
			continue
		}
		logged[rec.Trace] = probe{rec.Trace, rec.Status}
		counts[rec.Trace]++
	}
	for _, w := range want {
		got, ok := logged[w.trace]
		if !ok {
			t.Errorf("trace %s (status %d) never logged", w.trace, w.status)
			continue
		}
		if got.status != w.status {
			t.Errorf("trace %s logged status %d, want %d", w.trace, got.status, w.status)
		}
		if counts[w.trace] != 1 {
			t.Errorf("trace %s logged %d times, want exactly once", w.trace, counts[w.trace])
		}
	}
}

// The trace endpoints: a finished request's trace is served by ID with
// its phase spans, the listing includes it, and the job it started
// links back via trace_id.
func TestTraceEndpointsAndJobLink(t *testing.T) {
	_, srv := newTestServer(t, "", func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		return &stats.Run{Runtime: 5}, nil
	})
	resp := postJSON(t, srv.URL+"/v1/runs", spec.New("barnes", spec.WithNodes(4), spec.WithQuota(50)).JSON())
	traceID := resp.Header.Get("X-Tsnoop-Trace")
	jobID := resp.Header.Get("X-Tsnoop-Job")
	if traceID == "" || jobID == "" {
		t.Fatalf("missing headers: trace %q job %q", traceID, jobID)
	}
	io.Copy(io.Discard, resp.Body)

	var tr Trace
	getInto(t, srv.URL+"/v1/traces/"+traceID, &tr)
	if tr.ID != traceID || tr.Route != "POST /v1/runs" || tr.Status != http.StatusOK {
		t.Errorf("trace = %+v", tr)
	}
	names := map[string]bool{}
	for _, s := range tr.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"store_get", "queue_wait", "simulate", "store_write"} {
		if !names[want] {
			t.Errorf("trace spans lack %q (have %v)", want, tr.Spans)
		}
	}

	var all []Trace
	getInto(t, srv.URL+"/v1/traces", &all)
	found := false
	for _, tr := range all {
		if tr.ID == traceID {
			found = true
		}
	}
	if !found {
		t.Errorf("/v1/traces listing lacks %s", traceID)
	}

	var job JobStatus
	getInto(t, srv.URL+"/v1/jobs/"+jobID, &job)
	if job.TraceID != traceID {
		t.Errorf("job trace_id = %q, want %q", job.TraceID, traceID)
	}

	if resp, err := http.Get(srv.URL + "/v1/traces/nosuch"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown trace = %s, want 404", resp.Status)
		}
	}
}

// A forwarded request records both sides of the hop under one trace ID:
// the entry node's trace has the route and forward spans plus the
// owner's span list (shipped back in the X-Tsnoop-Trace-Spans header),
// and the owner's own ring holds the same ID.
func TestClusterForwardTracePropagation(t *testing.T) {
	nodes := startCluster(t, 3, nil, 0)
	s := specOwnedBy(t, nodes, 1)

	resp := postJSON(t, nodes[0].url+"/v1/runs", s.JSON())
	if got := resp.Header.Get("X-Tsnoop-Remote"); got != nodes[1].addr {
		t.Fatalf("X-Tsnoop-Remote = %q, want %q", got, nodes[1].addr)
	}
	traceID := resp.Header.Get("X-Tsnoop-Trace")
	io.Copy(io.Discard, resp.Body)

	var tr Trace
	getInto(t, nodes[0].url+"/v1/traces/"+traceID, &tr)
	if tr.Node != nodes[0].addr {
		t.Errorf("entry trace node = %q, want %q", tr.Node, nodes[0].addr)
	}
	names := map[string]bool{}
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"route", "store_get", "forward", "replicate"} {
		if !names[want] {
			t.Errorf("entry trace lacks the %q span (have %v)", want, tr.Spans)
		}
	}
	if tr.RemotePeer != nodes[1].addr {
		t.Errorf("remote_peer = %q, want %q", tr.RemotePeer, nodes[1].addr)
	}
	remote := map[string]bool{}
	for _, sp := range tr.RemoteSpans {
		remote[sp.Name] = true
	}
	for _, want := range []string{"store_get", "simulate"} {
		if !remote[want] {
			t.Errorf("remote spans lack %q (have %v)", want, tr.RemoteSpans)
		}
	}

	// The owner recorded the hop under the same ID.
	var own Trace
	getInto(t, nodes[1].url+"/v1/traces/"+traceID, &own)
	if own.ID != traceID || own.Node != nodes[1].addr {
		t.Errorf("owner trace = %+v, want id %s on %s", own, traceID, nodes[1].addr)
	}
}

// getInto fetches one JSON document into v.
func getInto(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}

// A forwarded retry can reuse a trace ID. Evicting the older record must
// not drop the index entry of the newer one it still retains, and the
// ring keeps its newest-first order as it wraps.
func TestTraceRingKeepsNewerDuplicate(t *testing.T) {
	r := newTraceRing(2)
	for i, id := range []string{"x", "x", "y"} {
		r.add(Trace{ID: id, Status: 200 + i})
	}
	if tr, ok := r.get("x"); !ok || tr.Status != 201 {
		t.Fatalf("get(x) = %+v, %v; want the newer x (status 201)", tr, ok)
	}
	if tr, ok := r.get("y"); !ok || tr.Status != 202 {
		t.Fatalf("get(y) = %+v, %v; want status 202", tr, ok)
	}
	r.add(Trace{ID: "z", Status: 203})
	if _, ok := r.get("x"); ok {
		t.Fatal("x still indexed after both of its records were evicted")
	}
	var got []int
	for _, tr := range r.all() {
		got = append(got, tr.Status)
	}
	if len(got) != 2 || got[0] != 203 || got[1] != 202 {
		t.Fatalf("all() statuses = %v, want [203 202]", got)
	}
}
