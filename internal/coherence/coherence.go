// Package coherence defines the vocabulary shared by every cache
// coherence protocol in this repository — processor operations, block
// addresses, transaction kinds, home mapping — plus the dense per-run
// block numbering (Index) that per-block state is kept by (Table) and
// the runtime coherence checker (Oracle) used by the test suites.
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
type TxnKind uint8

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

// Index numbers the blocks a run touches densely: 0, 1, 2, ... in the
// order they are first touched. Per-block state then lives in Tables
// indexed by that number instead of in maps keyed by the block. The zero
// Index is empty and ready to use.
type Index struct {
	of map[Block]int32
}

// Of returns b's index, numbering b next when it is new.
func (x *Index) Of(b Block) int32 {
	i, ok := x.of[b]
	if !ok {
		if x.of == nil {
			x.of = make(map[Block]int32)
		}
		i = int32(len(x.of))
		x.of[b] = i
	}
	return i
}

// Lookup returns b's index, or false when b was never numbered.
func (x *Index) Lookup(b Block) (int32, bool) {
	i, ok := x.of[b]
	return i, ok
}

// Len returns how many blocks are numbered.
func (x *Index) Len() int { return len(x.of) }

// pageBits sizes a Table page at 1<<pageBits entries.
const pageBits = 10

// Table holds one T per Index number. Its entries live in fixed-size
// pages allocated on first access and never copied, so growing a table
// costs one page per 1<<pageBits blocks and nothing else. A slice grown
// by append would copy all its entries at every growth step. An entry
// never written reads as T's zero value, which each table makes the
// block's initial state. The zero Table is empty and ready to use.
type Table[T any] struct {
	pages []*[1 << pageBits]T
}

// At returns a pointer to entry i, allocating its page when needed.
func (t *Table[T]) At(i int32) *T {
	p := int(i >> pageBits)
	for p >= len(t.pages) {
		t.pages = append(t.pages, nil)
	}
	pg := t.pages[p]
	if pg == nil {
		pg = new([1 << pageBits]T)
		t.pages[p] = pg
	}
	return &pg[i&(1<<pageBits-1)]
}

// Oracle checks coherence at runtime: block versions are assigned in
// write-serialization order, so the versions each processor observes for a
// given block must be non-decreasing ("writes to the same location are
// seen in the same order by everybody"). A violation panics.
type Oracle struct {
	// nextVersion is each block's newest version, by Index number.
	nextVersion Table[uint64]
	// lastSeen[cpu] maps each block to the newest version cpu saw. A
	// map per CPU, keyed by block alone, takes the runtime's 64-bit
	// fast path; the maps are made as CPUs first observe.
	lastSeen []map[Block]uint64
	observes int64
}

// NewOracle returns an empty checker.
func NewOracle() *Oracle { return &Oracle{} }

// WriteVersion allocates the next version of the block numbered i in the
// run's Index, in the order the protocol serializes stores.
func (o *Oracle) WriteVersion(i int32) uint64 {
	v := o.nextVersion.At(i)
	*v++
	return *v
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
