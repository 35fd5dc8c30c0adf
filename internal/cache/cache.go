// Package cache models the unified level-two cache of each node: 4 MByte,
// 4-way set associative, 64-byte blocks in the paper's target system, with
// true LRU replacement and MSI stable states. Transient (in-flight) states
// live in the protocol controllers' MSHRs, not here.
// Every broadcast is snooped by every node and most of those probes miss,
// so a cache keeps its tags apart from the rest of each line (see Cache).
//
// A paper-sized cache is 2 MiB of arrays, and an experiment grid builds
// dozens of 16-node machines. New therefore borrows its arrays from a
// per-geometry pool, and Release hands them back once the run is over,
// zeroed again in time proportional to the sets the run filled.
package cache

import (
	"fmt"
	"math/bits"
	"sync"

	"tsnoop/internal/coherence"
)

// State is a MOSI stable state.
type State int

// States. The paper's evaluated protocols are MSI; the Owned state is the
// MOESI extension discussed in Section 3 and implemented by tssnoop's
// UseOwnedState option (the E state's shared-signal requirement is what
// the paper recommends forgoing, so it is not modelled).
const (
	Invalid State = iota
	Shared
	Owned
	Modified
)

// Dirty reports whether a line in this state must be written back on
// eviction.
func (s State) Dirty() bool { return s == Modified || s == Owned }

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Owned:
		return "O"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// meta is one way's bookkeeping apart from its tag. A way is valid iff
// its state is not Invalid; its tag is meaningful only then.
type meta struct {
	state   State
	version uint64 // data value surrogate for the coherence checker
	lastUse uint64 // LRU clock
}

// Cache is a set-associative cache indexed by block address: two flat,
// pointer-free arrays indexed by set*ways + way. A probe scans the set's
// tags and reads meta only on a match. No tag value is reserved.
//
// The arrays form a slab that New borrows from a pool shared by every
// cache of the same Config. Release zeroes the sets Insert filled, so a
// slab comes back exactly as New would allocate it and a reused cache
// behaves exactly like a fresh one. (Invalid meta alone would be
// correct, since a tag counts only while its way is valid, but stale
// tags of the same blocks make probes read meta they would otherwise
// skip.) A cache that is never released simply leaves its slab to the
// garbage collector.
type Cache struct {
	tags    []coherence.Block
	meta    []meta
	setMask uint64
	ways    int
	clock   uint64

	// slab owns tags and meta, plus one bit per set that Insert has
	// filled; Release clears those sets only.
	slab *slab

	// Size bookkeeping for reports.
	blockBytes int
	sizeBytes  int
}

// slab is the reusable storage of one cache, and the pool it returns to.
type slab struct {
	tags  []coherence.Block
	meta  []meta
	dirty []uint64 // bit s%64 of word s/64 marks set s as filled
	pool  *sync.Pool
}

// pools holds one slab pool per geometry. A sync.Pool rather than a
// retained free list: idle slabs go after two garbage collections, so a
// burst of runs does not pin its peak footprint for the process's life.
var pools = struct {
	sync.Mutex
	m map[Config]*sync.Pool
}{m: make(map[Config]*sync.Pool)}

// poolFor returns cfg's slab pool, creating it on first use.
func poolFor(cfg Config) *sync.Pool {
	pools.Lock()
	defer pools.Unlock()
	p := pools.m[cfg]
	if p == nil {
		p = new(sync.Pool)
		pools.m[cfg] = p
	}
	return p
}

// Config describes a cache geometry.
type Config struct {
	SizeBytes  int // total capacity
	Ways       int
	BlockBytes int
}

// DefaultConfig is the paper's L2: 4 MByte, 4-way, 64-byte blocks.
func DefaultConfig() Config {
	return Config{SizeBytes: 4 << 20, Ways: 4, BlockBytes: 64}
}

// New constructs an empty cache, on a pooled slab when one of this
// geometry has been released. Geometry must be a power-of-two number of
// sets.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.BlockBytes <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry %+v", cfg)
	}
	nLines := cfg.SizeBytes / cfg.BlockBytes
	if nLines%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache: %d lines not divisible by %d ways", nLines, cfg.Ways)
	}
	nSets := nLines / cfg.Ways
	if nSets&(nSets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets is not a power of two", nSets)
	}
	pool := poolFor(cfg)
	s, _ := pool.Get().(*slab)
	if s == nil {
		s = &slab{
			tags:  make([]coherence.Block, nLines),
			meta:  make([]meta, nLines),
			dirty: make([]uint64, (nSets+63)/64),
			pool:  pool,
		}
	}
	c := &Cache{
		tags:       s.tags,
		meta:       s.meta,
		setMask:    uint64(nSets - 1),
		ways:       cfg.Ways,
		slab:       s,
		blockBytes: cfg.BlockBytes,
		sizeBytes:  cfg.SizeBytes,
	}
	return c, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// BlockBytes returns the block size in bytes.
func (c *Cache) BlockBytes() int { return c.blockBytes }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// base returns the index of way 0 of b's set.
func (c *Cache) base(b coherence.Block) int { return int(uint64(b)&c.setMask) * c.ways }

// find returns the index of b's valid way, or -1. It reads a way's meta
// only when the tag matches, so a miss touches only the set's tags.
func (c *Cache) find(b coherence.Block) int {
	base := c.base(b)
	for i, t := range c.tags[base : base+c.ways] {
		if t == b && c.meta[base+i].state != Invalid {
			return base + i
		}
	}
	return -1
}

// Lookup returns the state of block b (Invalid when absent) and its
// version, updating LRU on a valid hit.
func (c *Cache) Lookup(b coherence.Block) (State, uint64) {
	if i := c.find(b); i >= 0 {
		c.clock++
		c.meta[i].lastUse = c.clock
		return c.meta[i].state, c.meta[i].version
	}
	return Invalid, 0
}

// Peek is Lookup without the LRU side effect.
func (c *Cache) Peek(b coherence.Block) (State, uint64) {
	if i := c.find(b); i >= 0 {
		return c.meta[i].state, c.meta[i].version
	}
	return Invalid, 0
}

// SetState transitions a resident block to a new state (Invalid drops it).
// It panics when the block is absent: protocol controllers must never
// downgrade a line they do not hold.
func (c *Cache) SetState(b coherence.Block, s State) {
	i := c.find(b)
	if i < 0 {
		panic(fmt.Sprintf("cache: SetState(%x) on absent block", b))
	}
	c.meta[i].state = s
}

// SetVersion updates a resident block's version (a completed store).
func (c *Cache) SetVersion(b coherence.Block, v uint64) {
	i := c.find(b)
	if i < 0 {
		panic(fmt.Sprintf("cache: SetVersion(%x) on absent block", b))
	}
	c.meta[i].version = v
}

// Victim describes a line evicted by Insert.
type Victim struct {
	Block   coherence.Block
	State   State
	Version uint64
}

// Insert places block b with the given state and version, evicting the LRU
// line of the set if necessary. It returns the evicted line, if any.
// Inserting an already-resident block updates it in place.
func (c *Cache) Insert(b coherence.Block, s State, version uint64) (Victim, bool) {
	if s == Invalid {
		panic("cache: Insert with Invalid state")
	}
	c.clock++
	if i := c.find(b); i >= 0 {
		c.meta[i] = meta{state: s, version: version, lastUse: c.clock}
		return Victim{}, false
	}
	base := c.base(b)
	set := c.meta[base : base+c.ways]
	// Prefer an invalid way; otherwise evict true-LRU.
	victim := -1
	for i := range set {
		if set[i].state == Invalid {
			victim = i
			break
		}
	}
	evicted := Victim{}
	has := false
	if victim < 0 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[victim].lastUse {
				victim = i
			}
		}
		evicted = Victim{Block: c.tags[base+victim], State: set[victim].state, Version: set[victim].version}
		has = true
	}
	c.tags[base+victim] = b
	set[victim] = meta{state: s, version: version, lastUse: c.clock}
	si := uint64(b) & c.setMask
	c.slab.dirty[si/64] |= 1 << (si % 64)
	return evicted, has
}

// CountState returns how many resident lines are in state s (test support
// and end-of-run invariant checks).
func (c *Cache) CountState(s State) int {
	c.mustLive()
	n := 0
	for i := range c.meta {
		if c.meta[i].state == s {
			n++
		}
	}
	return n
}

// ForEach invokes fn for every valid line, in set then way order.
func (c *Cache) ForEach(fn func(b coherence.Block, s State, version uint64)) {
	c.mustLive()
	for i, m := range c.meta {
		if m.state != Invalid {
			fn(c.tags[i], m.state, m.version)
		}
	}
}

// Release returns the cache's slab to its pool for the next New of the
// same geometry, after zeroing every set Insert filled. The
// cache is unusable afterwards: its arrays are gone, so any further use,
// a second Release included, panics instead of touching a slab that a
// later run may own.
func (c *Cache) Release() {
	c.mustLive()
	s := c.slab
	for w, word := range s.dirty {
		for ; word != 0; word &= word - 1 {
			base := (w*64 + bits.TrailingZeros64(word)) * c.ways
			clear(s.tags[base : base+c.ways])
			clear(s.meta[base : base+c.ways])
		}
	}
	clear(s.dirty)
	c.tags, c.meta, c.slab = nil, nil, nil
	s.pool.Put(s)
}

// mustLive panics on a released cache, for the whole-cache walks that
// would otherwise quietly see an empty one.
func (c *Cache) mustLive() {
	if c.slab == nil {
		panic("cache: use of a released cache")
	}
}
