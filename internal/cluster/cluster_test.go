package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// twoNodeConfig builds a cluster whose only peer is the given test
// server.
func twoNodeConfig(t *testing.T, peerAddr string) *Cluster {
	t.Helper()
	self := "127.0.0.1:1"
	c, err := New(Config{
		Self:    self,
		Members: []string{self, peerAddr},
		Client:  NewHTTPClient(DefaultTimeouts()),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// A forward posts the spec to the peer's /v1/runs with the forwarded
// marker and the trace ID, strips the response's trailing newline, and
// relays the cache disposition plus the owner's span header.
func TestForwardRoundTrip(t *testing.T) {
	var gotForwarded, gotTrace atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/runs" {
			t.Errorf("forward hit %s, want /v1/runs", r.URL.Path)
		}
		gotForwarded.Store(r.Header.Get(ForwardedHeader))
		gotTrace.Store(r.Header.Get(TraceHeader))
		w.Header().Set(cacheHeader, "hit")
		w.Header().Set(TraceSpansHeader, `[{"name":"store_get","start_us":0,"dur_us":3,"note":"hit"}]`)
		w.Write([]byte(`{"runtime_ps":7}` + "\n"))
	}))
	defer srv.Close()
	peer := strings.TrimPrefix(srv.URL, "http://")
	c := twoNodeConfig(t, peer)

	fwd, err := c.Forward(context.Background(), peer, []byte(`{}`), "cafe0123")
	if err != nil {
		t.Fatal(err)
	}
	if string(fwd.Data) != `{"runtime_ps":7}` {
		t.Errorf("forwarded data = %q (trailing newline must be stripped)", fwd.Data)
	}
	if fwd.Disposition != "hit" {
		t.Errorf("disposition = %q, want hit", fwd.Disposition)
	}
	if !strings.Contains(fwd.RemoteSpans, `"store_get"`) {
		t.Errorf("remote spans = %q, want the owner's span header relayed", fwd.RemoteSpans)
	}
	if got := gotForwarded.Load(); got != c.Self() {
		t.Errorf("forwarded marker = %v, want %s", got, c.Self())
	}
	if got := gotTrace.Load(); got != "cafe0123" {
		t.Errorf("trace header = %v, want cafe0123", got)
	}
	st := c.Stats()
	if len(st.Peers) != 1 || st.Peers[0].Forwards != 1 || st.Peers[0].Hits != 1 || st.Peers[0].Errors != 0 {
		t.Errorf("stats after hit = %+v", st.Peers)
	}
}

// Forward has no retry loop: a failed forward — a 503, a 429 or a
// closed peer — makes its one attempt and then degrades, surfacing as
// an error plus one peer error: the caller's cue to compute locally.
func TestForwardRetriesThenDegrades(t *testing.T) {
	for _, tc := range []struct {
		name     string
		status   int // 0 = the peer is closed before the forward
		attempts int64
	}{
		{"503", http.StatusServiceUnavailable, 1},
		{"429", http.StatusTooManyRequests, 1},
		{"closed peer", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forwardFailsOnce(t, tc.status, tc.attempts)
		})
	}
}

// A 400 from the peer is not retried: the spec will not get better.
func TestForwardDoesNotRetryBadRequests(t *testing.T) {
	forwardFailsOnce(t, http.StatusBadRequest, 1)
}

// forwardFailsOnce forwards to a peer that answers every request with
// status (0 closes the peer first) and checks that the forward fails
// after the given number of peer-side attempts, counting one forward and
// one error.
func forwardFailsOnce(t *testing.T, status int, attempts int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"no"}`, status)
	}))
	defer srv.Close()
	peer := strings.TrimPrefix(srv.URL, "http://")
	c := twoNodeConfig(t, peer)
	if status == 0 {
		srv.Close()
	}
	if _, err := c.Forward(context.Background(), peer, []byte(`{}`), ""); err == nil {
		t.Fatal("failed forward returned no error")
	}
	if got := calls.Load(); got != attempts {
		t.Fatalf("peer saw %d attempts, want %d", got, attempts)
	}
	if st := c.Stats(); st.Peers[0].Errors != 1 || st.Peers[0].Forwards != 1 {
		t.Fatalf("peer stats = %+v, want 1 forward and 1 error", st.Peers)
	}
}

// A cancelled context fails the forward promptly.
func TestForwardHonorsContext(t *testing.T) {
	c := twoNodeConfig(t, "127.0.0.1:9")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := c.Forward(ctx, "127.0.0.1:9", []byte(`{}`), ""); err == nil {
		t.Fatal("forward with cancelled context succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled forward took %s", elapsed)
	}
}

// Admission: an idle node admits anything, a busy node sheds past the
// budget, and release restores capacity exactly once.
func TestAdmission(t *testing.T) {
	a := NewAdmission(4, "/v1/grids", "/v1/sweeps")

	// Idle overshoot: one stream larger than the budget is admitted.
	release, ok := a.Admit("/v1/grids", 10)
	if !ok {
		t.Fatal("idle node refused its first stream")
	}
	// Busy: anything more is shed.
	if _, ok := a.Admit("/v1/sweeps", 1); ok {
		t.Fatal("over-budget node admitted a second stream")
	}
	if s := a.RetryAfterSeconds(); s < 1 {
		t.Fatalf("RetryAfterSeconds = %d, want >= 1", s)
	}
	release()
	release() // idempotent
	if got := a.Stats().Inflight; got != 0 {
		t.Fatalf("inflight after release = %d, want 0", got)
	}
	if _, ok := a.Admit("/v1/sweeps", 2); !ok {
		t.Fatal("freed node refused a small stream")
	}
	st := a.Stats()
	if st.ShedTotal != 1 || len(st.Shed) != 2 {
		t.Fatalf("stats = %+v, want 1 shed across 2 pre-registered routes", st)
	}
	if st.Shed[0].Route != "/v1/grids" || st.Shed[0].Count != 0 ||
		st.Shed[1].Route != "/v1/sweeps" || st.Shed[1].Count != 1 {
		t.Fatalf("per-route shed = %+v", st.Shed)
	}
}

// An unlimited gate never sheds.
func TestAdmissionUnlimited(t *testing.T) {
	a := NewAdmission(0)
	for i := 0; i < 10; i++ {
		if _, ok := a.Admit("/v1/grids", 1000); !ok {
			t.Fatal("unlimited gate shed")
		}
	}
}
