package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsnoop/internal/spec"
	"tsnoop/internal/stats"
)

// newTestServer builds a service (with the given sim stub; nil = real
// simulations) behind an httptest server.
func newTestServer(t *testing.T, dir string, sim SimFunc) (*Service, *httptest.Server) {
	t.Helper()
	sv, err := New(Config{Dir: dir, Workers: 2, Sim: sim})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(sv))
	t.Cleanup(srv.Close)
	return sv, srv
}

func postJSON(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// The acceptance path, end to end over HTTP with real simulations:
// submitting the same Spec twice simulates once — the second response is
// byte-identical and marked as a store hit.
func TestHTTPRunsCacheSecondSubmission(t *testing.T) {
	sv, srv := newTestServer(t, t.TempDir(), nil)
	s := spec.New("barnes", spec.WithNodes(4), spec.WithWarmup(60), spec.WithQuota(120))
	body := s.JSON()

	first := postJSON(t, srv.URL+"/v1/runs", body)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first submit: %s", first.Status)
	}
	if got := first.Header.Get("X-Tsnoop-Cache"); got != CacheMiss {
		t.Fatalf("first submit X-Tsnoop-Cache = %q, want %q", got, CacheMiss)
	}
	if first.Header.Get("X-Tsnoop-Job") == "" {
		t.Fatal("first submit did not name its job")
	}
	firstBody, _ := io.ReadAll(first.Body)

	second := postJSON(t, srv.URL+"/v1/runs", body)
	if got := second.Header.Get("X-Tsnoop-Cache"); got != CacheHit {
		t.Fatalf("second submit X-Tsnoop-Cache = %q, want %q", got, CacheHit)
	}
	secondBody, _ := io.ReadAll(second.Body)
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatalf("second response not byte-identical:\n first: %s\nsecond: %s", firstBody, secondBody)
	}
	var run stats.Run
	if err := json.Unmarshal(secondBody, &run); err != nil {
		t.Fatalf("response is not Run JSON: %v", err)
	}
	if run.MemOps != 4*120 {
		t.Fatalf("run mem ops = %d, want %d", run.MemOps, 4*120)
	}
	if hits := sv.StoreStats().Hits; hits < 1 {
		t.Fatalf("store recorded %d hits", hits)
	}

	// An equivalent spec rendering (different Workers, explicit scale 1)
	// hashes identically, so it is also a pure hit.
	alt := s
	alt.Workers = 7
	alt.QuotaScale, alt.WarmupScale = 1, 1
	third := postJSON(t, srv.URL+"/v1/runs", alt.JSON())
	if got := third.Header.Get("X-Tsnoop-Cache"); got != CacheHit {
		t.Fatalf("equivalent spec X-Tsnoop-Cache = %q, want %q", got, CacheHit)
	}
	thirdBody, _ := io.ReadAll(third.Body)
	if !bytes.Equal(firstBody, thirdBody) {
		t.Fatal("equivalent spec response not byte-identical")
	}
}

// Concurrent identical submissions singleflight: one job, every
// response byte-identical, exactly Seeds simulations.
func TestHTTPConcurrentIdenticalSubmissionsSingleflight(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		calls.Add(1)
		<-gate
		return &stats.Run{Runtime: 777}, nil
	}
	_, srv := newTestServer(t, "", sim)
	s := spec.New("barnes", spec.WithNodes(4), spec.WithQuota(50))
	body := s.JSON()

	const clients = 6
	bodies := make([][]byte, clients)
	dispositions := make([]string, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
			dispositions[i] = resp.Header.Get("X-Tsnoop-Cache")
		}(i)
	}
	time.Sleep(100 * time.Millisecond) // let the requests pile onto the flight
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("%d simulations for %d concurrent identical submissions, want 1", got, clients)
	}
	misses := 0
	for i := range bodies {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d got different bytes", i)
		}
		if dispositions[i] == CacheMiss {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d responses claim to have started the job, want 1 (rest join or hit)", misses)
	}
}

func TestHTTPGridStreamsNDJSONInPresentationOrder(t *testing.T) {
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		return &stats.Run{Runtime: 100}, nil
	}
	_, srv := newTestServer(t, "", sim)
	s := spec.New("barnes", spec.WithNodes(4), spec.WithQuota(50))
	resp := postJSON(t, srv.URL+"/v1/grids", s.JSON())
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	data, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(spec.Protocols) {
		t.Fatalf("grid streamed %d lines, want %d:\n%s", len(lines), len(spec.Protocols), data)
	}
	for i, proto := range spec.Protocols {
		var cell struct {
			Benchmark string `json:"benchmark"`
			Protocol  string `json:"protocol"`
		}
		if err := json.Unmarshal([]byte(lines[i]), &cell); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if cell.Benchmark != "barnes" || cell.Protocol != proto {
			t.Fatalf("line %d = %s, want barnes/%s (presentation order)", i, lines[i], proto)
		}
	}
}

func TestHTTPSweepStreamsPoints(t *testing.T) {
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		return &stats.Run{Runtime: 100}, nil
	}
	_, srv := newTestServer(t, "", sim)
	s := spec.New("barnes", spec.WithNodes(4), spec.WithQuota(50))
	body, _ := json.Marshal(map[string]any{"sweep": "blocksize", "spec": json.RawMessage(s.JSON())})
	resp := postJSON(t, srv.URL+"/v1/sweeps", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %s", resp.Status)
	}
	data, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 {
		t.Fatalf("sweep streamed %d lines:\n%s", len(lines), data)
	}
	for i, line := range lines {
		var pt struct {
			Label    string `json:"label"`
			Protocol string `json:"protocol"`
		}
		if err := json.Unmarshal([]byte(line), &pt); err != nil || pt.Label == "" {
			t.Fatalf("line %d not a sweep point: %s (%v)", i, line, err)
		}
	}
}

func TestHTTPJobsAndHealth(t *testing.T) {
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		return &stats.Run{Runtime: 5}, nil
	}
	_, srv := newTestServer(t, "", sim)
	resp := postJSON(t, srv.URL+"/v1/runs", spec.New("barnes", spec.WithNodes(4), spec.WithQuota(50)).JSON())
	jobID := resp.Header.Get("X-Tsnoop-Job")
	io.Copy(io.Discard, resp.Body)

	jr, err := http.Get(srv.URL + "/v1/jobs/" + jobID)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	var job JobStatus
	if err := json.NewDecoder(jr.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	if job.ID != jobID || job.State != JobDone || job.SeedsDone != 1 {
		t.Fatalf("job = %+v", job)
	}

	if r404, _ := http.Get(srv.URL + "/v1/jobs/job-999999"); r404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %s", r404.Status)
	}

	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h health
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Queue.Done != 1 {
		t.Fatalf("health = %+v", h)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, srv := newTestServer(t, "", func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		return &stats.Run{}, nil
	})
	cases := []struct {
		path string
		body string
	}{
		{"/v1/runs", `{"benchmrak":"DSS"}`},      // unknown field
		{"/v1/runs", `not json`},                 // malformed
		{"/v1/runs", `{"protocol":"MOESI"}`},     // invalid spec
		{"/v1/grids", `{"network":"hypercube"}`}, // invalid machine
		{"/v1/sweeps", `{"sweep":"bogus"}`},      // unknown sweep kind
		{"/v1/sweeps", fmt.Sprintf(`{"sweep":"nodes","spec":%s,"x":1}`, spec.Default().JSON())}, // unknown request field
	}
	for _, c := range cases {
		resp := postJSON(t, srv.URL+c.path, []byte(c.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %q: %s, want 400", c.path, c.body, resp.Status)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Errorf("POST %s %q: error body malformed (%v)", c.path, c.body, err)
		}
	}
}

// TestHTTPRejectsUnbuildableMachine pins that a machine system.Build
// cannot build is a bad request caught by validation: no job is
// created, no simulation runs and panics, and the body is the one-line
// spec error rather than a retried panic's stack. Tokens per port above
// system.MaxTokensPerPort are refused too: recording the token schedule
// of a 256-node torus with 1000 of them would exhaust memory, a fatal
// error no recover catches.
func TestHTTPRejectsUnbuildableMachine(t *testing.T) {
	sv, srv := newTestServer(t, "", nil)
	// An 81-node TS-Snoop spec is buildable on its own, but its grid
	// has directory cells and its ablation sweep multicast points.
	ts81 := spec.New("barnes", spec.WithNodes(81), spec.WithQuota(50))
	for _, c := range []struct {
		path string
		body []byte
	}{
		{"/v1/runs", spec.New("barnes", spec.WithProtocol("DirOpt"), spec.WithNodes(81), spec.WithQuota(50)).JSON()},
		{"/v1/runs", spec.New("barnes", spec.WithMulticast(), spec.WithNodes(81), spec.WithQuota(50)).JSON()},
		{"/v1/runs", spec.New("barnes", spec.WithNodes(12), spec.WithQuota(50)).JSON()},
		{"/v1/runs", []byte(`{"benchmark":"barnes","network":"torus","nodes":1000000000000000003}`)},
		{"/v1/runs", []byte(`{"benchmark":"barnes","network":"torus","nodes":256,"tokens_per_port":1000}`)},
		{"/v1/grids", ts81.JSON()},
		{"/v1/sweeps", fmt.Appendf(nil, `{"sweep":"ablation","spec":%s}`, ts81.JSON())},
	} {
		resp := postJSON(t, srv.URL+c.path, c.body)
		body, _ := io.ReadAll(resp.Body)
		body = bytes.TrimSuffix(body, []byte("\n"))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: %s, want 400 (body %s)", c.path, c.body, resp.Status, body)
		}
		if !bytes.HasPrefix(body, []byte(`{"error":"spec: `)) || bytes.Contains(body, []byte(`\n`)) {
			t.Errorf("POST %s %s: body %s, want a one-line spec error", c.path, c.body, body)
		}
	}
	if jobs := sv.Jobs(); len(jobs) != 0 {
		t.Errorf("rejected specs created %d jobs", len(jobs))
	}
	if n := sv.QueueStats().PanicsRecovered; n != 0 {
		t.Errorf("PanicsRecovered = %d, want 0", n)
	}
}

// TestHTTPJobsListSortedByID pins the GET /v1/jobs contract: the body
// is the full retained job list, sorted by id ascending.
func TestHTTPJobsListSortedByID(t *testing.T) {
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		return &stats.Run{Runtime: 5}, nil
	}
	_, srv := newTestServer(t, "", sim)
	const n = 4
	for seed := uint64(1); seed <= n; seed++ {
		s := spec.New("barnes", spec.WithNodes(4), spec.WithSeed(seed), spec.WithQuota(50))
		resp := postJSON(t, srv.URL+"/v1/runs", s.JSON())
		io.Copy(io.Discard, resp.Body)
	}
	jr, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	var jobs []JobStatus
	if err := json.NewDecoder(jr.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != n {
		t.Fatalf("listed %d jobs, want %d", len(jobs), n)
	}
	for i, j := range jobs {
		if want := fmt.Sprintf("job-%06d", i+1); j.ID != want {
			t.Fatalf("jobs[%d].ID = %s, want %s", i, j.ID, want)
		}
	}
}
