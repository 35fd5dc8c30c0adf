// Package coherence defines the vocabulary shared by every cache
// coherence protocol in this repository — processor operations, block
// addresses, transaction kinds, home mapping — plus the runtime coherence
// checker (Oracle) used by the test suites.
package coherence

import (
	"fmt"

	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
)

// Op is a processor memory operation.
type Op int

// Operations.
const (
	Load Op = iota
	Store
)

func (o Op) String() string {
	if o == Load {
		return "load"
	}
	return "store"
}

// Block is a cache-block address (byte address >> block-offset bits).
type Block uint64

// TxnKind enumerates coherence transaction kinds. The paper's protocols
// "support several transactions (e.g., get an S copy, get an M copy,
// writeback an M copy)".
type TxnKind int

// Transaction kinds.
const (
	GetS TxnKind = iota // get a shared (read) copy
	GetX                // get an exclusive (writable) copy
	PutX                // write back an owned copy
)

func (k TxnKind) String() string {
	switch k {
	case GetS:
		return "GETS"
	case GetX:
		return "GETX"
	case PutX:
		return "PUTX"
	default:
		return fmt.Sprintf("TxnKind(%d)", int(k))
	}
}

// HomeOf maps a block to its home memory controller: low-order block
// interleaving across the n nodes, as in the target system where "each
// node contains ... a memory controller for part of the globally shared
// memory".
func HomeOf(b Block, n int) int { return int(b % Block(n)) }

// AccessResult describes a completed processor memory operation.
type AccessResult struct {
	// Hit reports an L2 hit (no coherence transaction).
	Hit bool
	// Kind classifies the miss supplier (valid when !Hit).
	Kind stats.MissKind
	// Latency is the end-to-end L2 access latency.
	Latency sim.Time
	// Version is the block version observed (loads) or created (stores);
	// consumed by the Oracle.
	Version uint64
}

// Protocol is the interface every coherence protocol implements. A
// Protocol owns its caches, memory controllers and interconnect use; the
// processor models drive it with Access calls.
type Protocol interface {
	// Name identifies the protocol ("TS-Snoop", "DirClassic", "DirOpt").
	Name() string
	// Access performs op on block for the processor at node, invoking
	// done exactly once when the operation completes. Each node issues at
	// most one Access at a time (blocking processors).
	Access(node int, op Op, block Block, done func(AccessResult))
	// Pending reports the number of in-flight operations; the harness
	// drains to zero before reading final statistics.
	Pending() int
	// Release hands the protocol's node caches back to their pool once
	// the run is over. The protocol must not be used afterwards.
	Release()
}

// Oracle checks coherence at runtime: block versions are assigned in
// write-serialization order, so the versions each processor observes for a
// given block must be non-decreasing ("writes to the same location are
// seen in the same order by everybody"). A violation panics.
type Oracle struct {
	nextVersion map[Block]uint64
	// lastSeen[cpu] maps each block to the newest version cpu saw. A
	// map per CPU, keyed by block alone, takes the runtime's 64-bit
	// fast path; the maps are made as CPUs first observe.
	lastSeen []map[Block]uint64
	observes int64
}

// NewOracle returns an empty checker.
func NewOracle() *Oracle {
	return &Oracle{nextVersion: make(map[Block]uint64)}
}

// WriteVersion allocates the next version of b, in the order the protocol
// serializes stores.
func (o *Oracle) WriteVersion(b Block) uint64 {
	o.nextVersion[b]++
	return o.nextVersion[b]
}

// Observe records that cpu saw version v of block b and checks
// monotonicity: a version older than one cpu already saw panics.
func (o *Oracle) Observe(cpu int, b Block, v uint64) {
	o.observes++
	for cpu >= len(o.lastSeen) {
		o.lastSeen = append(o.lastSeen, make(map[Block]uint64))
	}
	seen := o.lastSeen[cpu]
	last, ok := seen[b]
	if ok && v <= last {
		if v < last {
			panic(fmt.Sprintf("coherence: cpu %d saw block %x regress from version %d to %d", cpu, b, last, v))
		}
		return
	}
	seen[b] = v
}

// Observations returns the number of Observe calls (test sanity checks).
func (o *Oracle) Observations() int64 { return o.observes }
