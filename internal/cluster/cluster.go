package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"tsnoop/internal/fault"
)

// ForwardedHeader marks a request that was already routed by a peer's
// ring. A server answering a forwarded request always computes locally
// — whatever two rings might momentarily disagree about (mid-rollout
// member lists), a forward can never loop.
const ForwardedHeader = "X-Tsnoop-Forwarded"

// cacheHeader is the service's cache-disposition response header; the
// forwarding client relays it so the entry node can report remote hits.
const cacheHeader = "X-Tsnoop-Cache"

// TraceHeader carries the request trace ID. The entry node generates
// one (or the client supplies its own), every response echoes it, and
// forwards propagate it so both nodes record the hop under one ID.
const TraceHeader = "X-Tsnoop-Trace"

// TraceSpansHeader is the owner's response header on a forwarded run:
// its wall-clock span list as JSON, which the entry node embeds into
// its own trace so GET /v1/traces/{id} shows both sides of the hop.
const TraceSpansHeader = "X-Tsnoop-Trace-Spans"

// maxForwardBody bounds a forwarded response body: a stats.Run JSON is
// a few kilobytes, so 64 MiB is "unbounded in practice" while still
// making a misbehaving peer an error instead of an OOM.
const maxForwardBody = 64 << 20

// Config parameterizes a Cluster.
type Config struct {
	// Self is this node's address exactly as it appears in Members.
	Self string
	// Members is the full static ring (host:port each, including Self).
	Members []string
	// Replicas is the virtual nodes per member (0 = DefaultReplicas).
	Replicas int
	// Client performs forwards (nil = NewHTTPClient(DefaultTimeouts())).
	Client *http.Client
	// BreakerThreshold is the consecutive-failure count that trips a
	// peer's circuit breaker open (0 = DefaultBreakerThreshold;
	// negative = breakers disabled).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before a
	// half-open probe is allowed (0 = DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// breakerNow overrides the breakers' clock in tests.
	breakerNow func() time.Time
}

// ErrBreakerOpen marks a forward skipped because the peer's breaker is
// open: the caller degrades to local compute, and the skip is counted
// separately from forward errors (the peer was not even tried).
var ErrBreakerOpen = errors.New("cluster: peer breaker open")

// errInjectedRefuse is the cluster.forward.refuse failpoint's error,
// shaped like a real refused connection.
var errInjectedRefuse = fmt.Errorf("fault: injected dial error: %w", syscall.ECONNREFUSED)

// peerCounters accumulate one peer's forwarding traffic.
type peerCounters struct {
	forwards int64 // misses forwarded to this peer
	hits     int64 // forwards the peer answered from its store
	errors   int64 // forwards that degraded to local compute
}

// Cluster is one node's view of the fleet: the shared ring plus a
// forwarding client and its per-peer counters. All methods are safe
// for concurrent use.
type Cluster struct {
	ring   *Ring
	client *http.Client

	// breakers holds one circuit breaker per remote peer, pre-registered
	// in New alongside the counters; the map is never written after New,
	// so reads need no lock.
	breakers map[string]*breaker

	mu         sync.Mutex
	peers      map[string]*peerCounters
	replicated int64
}

// New builds a cluster node from the static member list.
func New(cfg Config) (*Cluster, error) {
	ring, err := NewRing(cfg.Self, cfg.Members, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = NewHTTPClient(DefaultTimeouts())
	}
	c := &Cluster{ring: ring, client: client,
		peers: make(map[string]*peerCounters), breakers: make(map[string]*breaker)}
	// Pre-register every peer so Stats (and the /metrics exposition) is
	// a fixed, deterministic series set from the first scrape.
	for _, m := range ring.Members() {
		if m != ring.Self() {
			c.peers[m] = &peerCounters{}
			c.breakers[m] = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.breakerNow)
		}
	}
	return c, nil
}

// Self returns this node's ring address.
func (c *Cluster) Self() string { return c.ring.Self() }

// Members returns the sorted static member list.
func (c *Cluster) Members() []string { return c.ring.Members() }

// Route returns the member owning key and whether it is a remote peer
// (false: this node owns the shard and must compute locally).
func (c *Cluster) Route(key string) (peer string, remote bool) {
	owner := c.ring.Owner(key)
	return owner, owner != c.ring.Self()
}

// Forwarded is one successful forward's answer: the owner's canonical
// Run JSON (trailing newline stripped, so the bytes are identical to a
// local Result.Data), its cache disposition ("hit", "join" or "miss"),
// and — when the owner runs a trace-aware build — the owner's
// wall-clock span list (TraceSpansHeader JSON) for the entry node's
// trace.
type Forwarded struct {
	Data        []byte
	Disposition string
	RemoteSpans string
}

// Forward sends one spec to its owning peer's POST /v1/runs, stamped
// with the entry node's trace ID (empty = untraced), and returns the
// owner's answer. It makes exactly one attempt: a connection error or a
// non-200 response is counted on the peer and returned as an error for
// the caller to degrade on — the repo-wide rule is that a dead peer
// costs a local simulation, never a failed stream.
//
// A peer whose circuit breaker is open is not tried at all: Forward
// returns ErrBreakerOpen immediately (a skip, not a forward error) so
// the caller computes locally without dialing a peer already known to
// be failing. Forward outcomes feed the breaker: consecutive failures
// trip it, a successful half-open probe closes it.
func (c *Cluster) Forward(ctx context.Context, peer string, specJSON []byte, traceID string) (Forwarded, error) {
	br := c.breakers[peer]
	if br != nil && !br.allow() {
		return Forwarded{}, fmt.Errorf("%w: %s", ErrBreakerOpen, peer)
	}
	fwd, err := c.post(ctx, peer, specJSON, traceID)
	if err != nil {
		if br != nil {
			br.failure()
		}
		c.recordError(peer)
		return Forwarded{}, err
	}
	if br != nil {
		br.success()
	}
	c.recordForward(peer, fwd.Disposition)
	return fwd, nil
}

// Suspect records that peer's "successful" forward produced an
// unusable answer (a body the entry node could not decode): the
// breaker treats it as a failure even though the HTTP exchange
// succeeded, so a peer that keeps answering garbage trips open just
// like one that refuses connections. The degraded forward is also
// counted as a peer error.
func (c *Cluster) Suspect(peer string) {
	if br := c.breakers[peer]; br != nil {
		br.failure()
	}
	c.mu.Lock()
	c.counters(peer).errors++
	c.mu.Unlock()
}

// post performs Forward's one attempt: the failpoints, then the HTTP
// exchange.
func (c *Cluster) post(ctx context.Context, peer string, specJSON []byte, traceID string) (Forwarded, error) {
	if f := fault.Active(); f != nil {
		if d := f.Delay(fault.ClusterLatency); d > 0 {
			if serr := sleep(ctx, d); serr != nil {
				return Forwarded{}, fmt.Errorf("cluster: forward to %s: %w", peer, serr)
			}
		}
		if f.Fire(fault.ClusterDialRefuse) {
			return Forwarded{}, fmt.Errorf("cluster: forward to %s: %w", peer, errInjectedRefuse)
		}
		if f.Fire(fault.Cluster5xx) {
			return Forwarded{}, fmt.Errorf("cluster: peer %s answered 502 Bad Gateway (injected)", peer)
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+peer+"/v1/runs", bytes.NewReader(specJSON))
	if err != nil {
		return Forwarded{}, fmt.Errorf("cluster: forward to %s: %w", peer, err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, c.ring.Self())
	if traceID != "" {
		req.Header.Set(TraceHeader, traceID)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return Forwarded{}, fmt.Errorf("cluster: forward to %s: %w", peer, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<14))
		return Forwarded{}, fmt.Errorf("cluster: peer %s answered %s: %s",
			peer, resp.Status, strings.TrimSpace(string(msg)))
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxForwardBody+1))
	if err != nil {
		return Forwarded{}, fmt.Errorf("cluster: reading %s response: %w", peer, err)
	}
	if len(data) > maxForwardBody {
		return Forwarded{}, fmt.Errorf("cluster: peer %s response exceeds %d bytes", peer, maxForwardBody)
	}
	// The cluster.forward.truncate failpoint cuts the body mid-document
	// after a fully "successful" exchange — the garbage-answering-peer
	// shape the entry node's decode check and Suspect exist for.
	if f := fault.Active(); f != nil {
		data, _ = f.Truncate(fault.ClusterTruncate, data)
	}
	// The runs handler terminates the JSON document with one newline;
	// strip it so forwarded bytes equal a local Result.Data exactly.
	data = bytes.TrimSuffix(data, []byte("\n"))
	return Forwarded{
		Data:        data,
		Disposition: resp.Header.Get(cacheHeader),
		RemoteSpans: resp.Header.Get(TraceSpansHeader),
	}, nil
}

// Replicate counts one peer result copied into the local LRU front.
func (c *Cluster) Replicate() {
	c.mu.Lock()
	c.replicated++
	c.mu.Unlock()
}

func (c *Cluster) counters(peer string) *peerCounters {
	ctr, ok := c.peers[peer]
	if !ok {
		ctr = &peerCounters{}
		c.peers[peer] = ctr
	}
	return ctr
}

func (c *Cluster) recordForward(peer, disposition string) {
	c.mu.Lock()
	ctr := c.counters(peer)
	ctr.forwards++
	if disposition == "hit" {
		ctr.hits++
	}
	c.mu.Unlock()
}

func (c *Cluster) recordError(peer string) {
	c.mu.Lock()
	ctr := c.counters(peer)
	ctr.forwards++
	ctr.errors++
	c.mu.Unlock()
}

// PeerStats is one peer's forwarding counters.
type PeerStats struct {
	Peer string `json:"peer"`
	// Forwards counts misses routed to this peer, failed attempts
	// included.
	Forwards int64 `json:"forwards"`
	// Hits counts forwards the peer answered from its store — the
	// remote-cache-hit signal the CI smoke asserts on.
	Hits int64 `json:"hits"`
	// Errors counts forwards that degraded to local compute: failed
	// attempts, plus "successful" forwards whose body was unusable
	// (Suspect).
	Errors int64 `json:"errors"`
	// Breaker is the peer's circuit-breaker state: "closed", "open", or
	// "half-open".
	Breaker string `json:"breaker"`
	// BreakerTrips counts transitions to open (including a failed
	// half-open probe re-opening).
	BreakerTrips int64 `json:"breaker_trips"`
	// BreakerSkips counts forwards skipped because the breaker was open
	// — degradations that cost a local compute but no network attempt.
	BreakerSkips int64 `json:"breaker_skips"`
}

// Stats is a point-in-time snapshot of one node's cluster counters.
type Stats struct {
	Self    string   `json:"self"`
	Members []string `json:"members"`
	// Replicated counts peer results copied into the local LRU front.
	Replicated int64 `json:"replicated"`
	// Peers is sorted by peer address, so renderings are deterministic.
	Peers []PeerStats `json:"peers"`
}

// Stats snapshots the cluster counters.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	ps := make([]PeerStats, 0, len(c.peers))
	for peer, ctr := range c.peers {
		st := PeerStats{Peer: peer, Forwards: ctr.forwards, Hits: ctr.hits, Errors: ctr.errors, Breaker: BreakerClosed}
		if br := c.breakers[peer]; br != nil {
			st.Breaker, st.BreakerTrips, st.BreakerSkips = br.snapshot()
		}
		ps = append(ps, st)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Peer < ps[j].Peer })
	return Stats{Self: c.ring.Self(), Members: c.ring.Members(), Replicated: c.replicated, Peers: ps}
}
