// Package cluster federates N `tsnoop serve` processes into one
// logical experiment service. A static, gossip-free consistent-hash
// ring assigns every canonical spec hash (spec.Canonical) to exactly
// one member, so each node owns a shard of the result store and the
// dedup queue; non-owners forward misses to the owning peer over the
// existing HTTP API (singleflight stays global, not per-node) and
// replicate hot results into their local LRU front on the way back.
// Admission control bounds each node's in-flight streamed cells so a
// burst of grid regenerations sheds load (429 + Retry-After) instead
// of falling over, and a peer failure degrades to local compute — a
// cluster streams byte-identical NDJSON to the single-node engine, no
// matter which member a request enters through or which members die
// mid-stream.
//
// Everything here is a wall-clock-free routing decision except the
// breaker cooldowns and the injected forward latency, which are
// explicitly documented as never reaching simulation output (see the
// determinism analyzer's //determinism:wallclock marker).
package cluster

import (
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"strings"
)

// DefaultReplicas is the number of virtual nodes each member projects
// onto the ring when Config.Replicas is zero. 128 points per member
// keeps the largest shard within a few percent of the mean for any
// plausible fleet size while the ring stays a few kilobytes.
const DefaultReplicas = 128

// Ring is a static consistent-hash ring over the cluster members.
// Every member builds the same ring from the same member list (the
// -peers flag), so all nodes agree on which member owns a key without
// any gossip or coordination protocol. Membership changes are a
// restart with a new -peers list; the content-addressed store makes
// that safe — a reshuffled key is a cache miss, never a wrong answer.
type Ring struct {
	self    string
	members []string
	points  []ringPoint
}

// ringPoint is one virtual node: a member projected onto the hash
// space.
type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds the ring from the full static member list. self must
// appear in members exactly as listed (addresses are compared as
// strings — "localhost:8177" and "127.0.0.1:8177" are different
// members). Every member must be a host:port address.
func NewRing(self string, members []string, replicas int) (*Ring, error) {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	if strings.TrimSpace(self) == "" {
		return nil, fmt.Errorf("cluster: -self is empty; every node must know its own ring address")
	}
	self = strings.TrimSpace(self)
	seen := make(map[string]bool)
	var list []string
	for _, m := range members {
		m = strings.TrimSpace(m)
		if m == "" || seen[m] {
			continue
		}
		if _, _, err := net.SplitHostPort(m); err != nil {
			return nil, fmt.Errorf("cluster: member %q is not host:port: %w", m, err)
		}
		seen[m] = true
		list = append(list, m)
	}
	if !seen[self] {
		return nil, fmt.Errorf("cluster: self %q is not in the member list %v", self, list)
	}
	if len(list) < 2 {
		return nil, fmt.Errorf("cluster: a ring needs at least 2 members, have %v", list)
	}
	sort.Strings(list)
	r := &Ring{self: self, members: list}
	r.points = make([]ringPoint, 0, len(list)*replicas)
	for _, m := range list {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", m, i)), member: m})
		}
	}
	// Ties broken by member name so every node sorts identically even
	// in the astronomically unlikely event of a point collision.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// hash64 is the ring's hash: FNV-1a, stable across processes and
// releases (keys must route identically on every member).
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Owner returns the member that owns a key: the first virtual node at
// or clockwise of the key's hash.
func (r *Ring) Owner(key string) string {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// Owns reports whether this node owns the key.
func (r *Ring) Owns(key string) bool { return r.Owner(key) == r.self }

// Self returns this node's ring address.
func (r *Ring) Self() string { return r.self }

// Members returns the sorted member list (including self).
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }
