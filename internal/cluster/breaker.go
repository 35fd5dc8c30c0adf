package cluster

import (
	"sync"
	"time"
)

// Breaker state names, as rendered in PeerStats, /healthz, and the
// tsnoop_cluster_breaker_state metric (closed=0, open=1, half-open=2).
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// Breaker defaults: a peer that fails this many consecutive forwards
// trips its breaker open, and stays open for the cooldown before a
// single half-open probe is allowed through.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 5 * time.Second
)

// numeric breaker states (the metric encoding).
const (
	stateClosed = iota
	stateOpen
	stateHalfOpen
)

// breaker is one peer's circuit breaker. Closed passes traffic and
// counts consecutive failures; at the threshold it trips open and every
// forward is skipped (the caller degrades straight to local compute
// without dialing a peer already known dead).
// After the cooldown one probe is let through half-open: success closes
// the breaker, failure re-opens it for another cooldown.
//
// The breaker reads the wall clock — cooldown expiry is inherently a
// time concern — through an injectable now func so tests drive it
// without sleeping. Breaker timing is service-edge wall clock that can
// never reach simulation output bytes.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    int
	fails    int // consecutive failures while closed
	openedAt time.Time
	probing  bool // the single half-open probe is in flight
	trips    int64
	skips    int64
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	if threshold == 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	if now == nil {
		//determinism:wallclock breaker cooldowns are service-edge timing, never simulation input
		now = time.Now
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// allow reports whether a forward to this peer may proceed. A false
// return is a breaker skip (counted), not a forward error. A negative
// threshold disables the breaker entirely.
func (b *breaker) allow() bool {
	if b.threshold < 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return true
	case stateOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			b.skips++
			return false
		}
		b.state = stateHalfOpen
		b.probing = true
		return true
	default: // half-open: one probe at a time
		if b.probing {
			b.skips++
			return false
		}
		b.probing = true
		return true
	}
}

// success records a forward that worked; any state resets to closed.
func (b *breaker) success() {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	b.state = stateClosed
	b.fails = 0
	b.probing = false
	b.mu.Unlock()
}

// failure records a forward that failed every attempt (or answered
// garbage). Closed trips at the consecutive-failure threshold; a failed
// half-open probe re-opens immediately.
func (b *breaker) failure() {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.trip()
		}
	case stateHalfOpen:
		b.trip()
	}
}

// trip moves to open; b.mu must be held.
func (b *breaker) trip() {
	b.state = stateOpen
	b.openedAt = b.now()
	b.fails = 0
	b.probing = false
	b.trips++
}

// snapshot returns the state name plus trip/skip counters.
func (b *breaker) snapshot() (state string, trips, skips int64) {
	if b.threshold < 0 {
		return BreakerClosed, 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateOpen:
		// An expired cooldown reads as half-open: the next forward will
		// probe, and surfacing that in /healthz beats reporting a peer
		// "open" that is actually one request from recovery.
		if b.now().Sub(b.openedAt) >= b.cooldown {
			return BreakerHalfOpen, b.trips, b.skips
		}
		return BreakerOpen, b.trips, b.skips
	case stateHalfOpen:
		return BreakerHalfOpen, b.trips, b.skips
	}
	return BreakerClosed, b.trips, b.skips
}
