package cluster

import (
	"context"
	"net"
	"net/http"
	"time"
)

// Outbound HTTP discipline: every client this repo points at a peer or
// a server carries explicit dial and response-header timeouts, so a
// hung or blackholed peer surfaces as an error the caller can degrade
// on instead of wedging a stream forever. http.DefaultClient (no
// timeouts anywhere) is banned from the service paths.

// Timeouts parameterizes an outbound HTTP client. Zero fields keep
// their stdlib meaning (no timeout), so callers set every field they
// care about — DefaultTimeouts and SubmitTimeouts are the two
// sanctioned presets.
type Timeouts struct {
	// Dial bounds TCP connection establishment.
	Dial time.Duration
	// ResponseHeader bounds the wait for a response's header bytes
	// after the request is fully written. For /v1/runs the header
	// arrives only once the owner finishes simulating, so this must
	// cover a whole cold simulation, not a network round trip.
	ResponseHeader time.Duration
	// TLSHandshake bounds the TLS handshake (unused for the plain-HTTP
	// peer mesh, set anyway so the client stays safe if fronted).
	TLSHandshake time.Duration
	// Idle bounds how long pooled keep-alive connections linger.
	Idle time.Duration
}

// DefaultTimeouts is the forwarding-client preset: fail fast on a dead
// peer (the caller computes locally instead), wait generously for a
// live peer that is legitimately simulating.
func DefaultTimeouts() Timeouts {
	return Timeouts{
		Dial:           2 * time.Second,
		ResponseHeader: 2 * time.Minute,
		TLSHandshake:   2 * time.Second,
		Idle:           90 * time.Second,
	}
}

// SubmitTimeouts is the CLI-client preset: same fast dial, but a
// submitted sweep or unscaled run can simulate for a long time before
// the first header byte, so the header wait is much longer.
func SubmitTimeouts() Timeouts {
	t := DefaultTimeouts()
	t.ResponseHeader = 15 * time.Minute
	return t
}

// NewHTTPClient builds an *http.Client with the given explicit
// timeouts. There is deliberately no overall request timeout: NDJSON
// streams run as long as the experiment does, and the per-phase
// timeouts above already bound every way a connection can hang.
func NewHTTPClient(t Timeouts) *http.Client {
	dialer := &net.Dialer{Timeout: t.Dial}
	return &http.Client{
		Transport: &http.Transport{
			DialContext:           dialer.DialContext,
			ResponseHeaderTimeout: t.ResponseHeader,
			TLSHandshakeTimeout:   t.TLSHandshake,
			IdleConnTimeout:       t.Idle,
			ForceAttemptHTTP2:     false,
		},
	}
}

// sleep waits d or until ctx is cancelled. It only paces the injected
// cluster.forward.latency fault: a wall-clock concern of the service
// edge that can never reach simulation output bytes, which is what the
// marker below asserts to the determinism analyzer.
func sleep(ctx context.Context, d time.Duration) error {
	//determinism:wallclock injected forward latency never reaches simulation output
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
