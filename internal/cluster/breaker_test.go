package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tsnoop/internal/fault"
)

// fakeClock is a hand-advanced clock for driving breaker cooldowns
// without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestBreakerTripsAtThresholdAndRecovers(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newBreaker(3, 5*time.Second, clk.now)

	// Closed passes traffic; two failures are not enough to trip.
	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker denied forward %d", i)
		}
		b.failure()
	}
	if state, trips, _ := b.snapshot(); state != BreakerClosed || trips != 0 {
		t.Fatalf("after 2 failures: %s, %d trips; want closed, 0", state, trips)
	}

	// The third consecutive failure trips it open: forwards skip.
	b.allow()
	b.failure()
	if state, trips, _ := b.snapshot(); state != BreakerOpen || trips != 1 {
		t.Fatalf("after 3 failures: %s, %d trips; want open, 1", state, trips)
	}
	for i := 0; i < 4; i++ {
		if b.allow() {
			t.Fatal("open breaker allowed a forward inside the cooldown")
		}
	}
	if _, _, skips := b.snapshot(); skips != 4 {
		t.Fatalf("skips = %d, want 4", skips)
	}

	// After the cooldown exactly one half-open probe goes through.
	clk.advance(5 * time.Second)
	if !b.allow() {
		t.Fatal("cooled-down breaker denied the half-open probe")
	}
	if b.allow() {
		t.Fatal("half-open breaker allowed a second concurrent probe")
	}
	if state, _, _ := b.snapshot(); state != BreakerHalfOpen {
		t.Fatalf("state during probe = %s, want half-open", state)
	}

	// A successful probe closes the breaker and resets the failure run.
	b.success()
	if state, _, _ := b.snapshot(); state != BreakerClosed {
		t.Fatalf("state after successful probe = %s, want closed", state)
	}
	if !b.allow() {
		t.Fatal("closed breaker denied traffic after recovery")
	}
	b.failure()
	b.allow()
	b.failure()
	if state, _, _ := b.snapshot(); state != BreakerClosed {
		t.Fatal("failure run survived the reset: 2 post-recovery failures tripped a threshold-3 breaker")
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newBreaker(1, 5*time.Second, clk.now)
	b.allow()
	b.failure() // threshold 1: first failure trips
	clk.advance(5 * time.Second)
	if !b.allow() {
		t.Fatal("probe denied after cooldown")
	}
	b.failure()
	if state, trips, _ := b.snapshot(); state != BreakerOpen || trips != 2 {
		t.Fatalf("after failed probe: %s, %d trips; want open, 2", state, trips)
	}
	if b.allow() {
		t.Fatal("re-opened breaker allowed a forward")
	}
	// An expired cooldown reads as half-open in snapshots even before
	// the next forward arrives to probe.
	clk.advance(5 * time.Second)
	if state, _, _ := b.snapshot(); state != BreakerHalfOpen {
		t.Fatalf("post-cooldown snapshot = %s, want half-open", state)
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(-1, time.Second, nil)
	for i := 0; i < 10; i++ {
		if !b.allow() {
			t.Fatal("disabled breaker denied a forward")
		}
		b.failure()
	}
	if state, trips, skips := b.snapshot(); state != BreakerClosed || trips != 0 || skips != 0 {
		t.Fatalf("disabled breaker = %s, %d trips, %d skips; want closed, 0, 0", state, trips, skips)
	}
}

// Forward against a dead peer trips the breaker; subsequent forwards
// return ErrBreakerOpen without any network attempt, and a recovered
// peer is restored by the half-open probe.
func TestClusterForwardBreakerLifecycle(t *testing.T) {
	var calls atomic.Int64
	var fail atomic.Bool
	fail.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if fail.Load() {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		w.Write([]byte(`{"runtime_ps":7}` + "\n"))
	}))
	defer srv.Close()
	peer := strings.TrimPrefix(srv.URL, "http://")

	clk := &fakeClock{t: time.Unix(1000, 0)}
	self := "127.0.0.1:1"
	c, err := New(Config{
		Self:             self,
		Members:          []string{self, peer},
		Client:           NewHTTPClient(DefaultTimeouts()),
		BreakerThreshold: 2,
		BreakerCooldown:  5 * time.Second,
		breakerNow:       clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		if _, err := c.Forward(context.Background(), peer, []byte(`{}`), ""); err == nil {
			t.Fatal("forward to a 502 peer succeeded")
		}
	}
	// Tripped: the next forward is a skip, not an attempt.
	before := calls.Load()
	_, err = c.Forward(context.Background(), peer, []byte(`{}`), "")
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("forward with open breaker = %v, want ErrBreakerOpen", err)
	}
	if calls.Load() != before {
		t.Fatal("open breaker still hit the network")
	}
	st := c.Stats()
	if p := st.Peers[0]; p.Breaker != BreakerOpen || p.BreakerTrips != 1 || p.BreakerSkips != 1 || p.Errors != 2 {
		t.Fatalf("peer stats = %+v, want open / 1 trip / 1 skip / 2 errors", p)
	}

	// The peer heals; after the cooldown one probe restores service.
	fail.Store(false)
	clk.advance(5 * time.Second)
	fwd, err := c.Forward(context.Background(), peer, []byte(`{}`), "")
	if err != nil || string(fwd.Data) != `{"runtime_ps":7}` {
		t.Fatalf("probe forward = %q, %v", fwd.Data, err)
	}
	if p := c.Stats().Peers[0]; p.Breaker != BreakerClosed {
		t.Fatalf("breaker after successful probe = %s, want closed", p.Breaker)
	}
}

// Suspect counts a garbage answer as a breaker failure and a peer
// error even though the HTTP exchange succeeded.
func TestClusterSuspectTripsBreaker(t *testing.T) {
	self := "127.0.0.1:1"
	peer := "127.0.0.1:2"
	c, err := New(Config{Self: self, Members: []string{self, peer}, BreakerThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Suspect(peer)
	c.Suspect(peer)
	p := c.Stats().Peers[0]
	if p.Breaker != BreakerOpen || p.Errors != 2 {
		t.Fatalf("peer after 2 suspects = %+v, want open with 2 errors", p)
	}
}

// The cluster.forward.refuse and cluster.forward.5xx failpoints fail
// forwards without touching the network; truncate mangles a successful
// body so the entry node's decode check sees garbage.
func TestForwardFailpoints(t *testing.T) {
	t.Cleanup(fault.Disable)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Write([]byte(`{"runtime_ps":7}` + "\n"))
	}))
	defer srv.Close()
	peer := strings.TrimPrefix(srv.URL, "http://")
	c := twoNodeConfig(t, peer)

	fs, err := fault.Parse("seed=1;cluster.forward.refuse=times:1;cluster.forward.5xx=times:1;cluster.forward.truncate=times:1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(fs)

	// Refused without a network attempt.
	if _, err := c.Forward(context.Background(), peer, []byte(`{}`), ""); err == nil || !strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("injected refusal = %v", err)
	}
	if calls.Load() != 0 {
		t.Fatal("injected refusal still dialed the peer")
	}
	// Injected 502, also without a network attempt.
	if _, err := c.Forward(context.Background(), peer, []byte(`{}`), ""); err == nil || !strings.Contains(err.Error(), "502") {
		t.Fatalf("injected 5xx = %v", err)
	}
	// Truncated body: the exchange "succeeds" with an unparsable answer.
	fwd, err := c.Forward(context.Background(), peer, []byte(`{}`), "")
	if err != nil {
		t.Fatalf("truncated forward errored: %v", err)
	}
	if full := `{"runtime_ps":7}`; string(fwd.Data) == full || len(fwd.Data) >= len(full) {
		t.Fatalf("truncate failpoint did not shorten the body: %q", fwd.Data)
	}
	fault.Disable()

	// Clean again once the schedule is gone.
	if fwd, err := c.Forward(context.Background(), peer, []byte(`{}`), ""); err != nil || string(fwd.Data) != `{"runtime_ps":7}` {
		t.Fatalf("post-schedule forward = %q, %v", fwd.Data, err)
	}
}
