// Package stats collects the measurements the paper reports: link traffic
// by message class (Figure 4), miss counts and cache-to-cache fractions
// (Table 3), runtimes (Figure 3), and latency/occupancy distributions used
// by the validation tests and ablations.
package stats

import (
	"fmt"
	"sort"
	"strings"

	"tsnoop/internal/obs"
	"tsnoop/internal/sim"
)

// Class labels a message for traffic accounting, matching Figure 4's
// stacked bars.
type Class int

// Message classes.
const (
	ClassData Class = iota // data-carrying messages (72 bytes)
	ClassRequest
	ClassNack
	ClassMisc // forwards, invalidations, acknowledgments, revisions
	numClasses
)

// String returns the Figure 4 legend name.
func (c Class) String() string {
	switch c {
	case ClassData:
		return "Data"
	case ClassRequest:
		return "Request"
	case ClassNack:
		return "Nack"
	case ClassMisc:
		return "Misc."
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classes lists all classes in Figure 4 order.
func Classes() []Class { return []Class{ClassData, ClassRequest, ClassNack, ClassMisc} }

// Traffic accumulates link-byte and message counts per class.
type Traffic struct {
	linkBytes [numClasses]int64
	messages  [numClasses]int64
}

// Add records one message of class c occupying links network links, each
// carrying bytes payload bytes.
func (t *Traffic) Add(c Class, links, bytes int) {
	t.linkBytes[c] += int64(links) * int64(bytes)
	t.messages[c]++
}

// LinkBytes returns the accumulated link-bytes for class c.
func (t *Traffic) LinkBytes(c Class) int64 { return t.linkBytes[c] }

// Messages returns the number of messages recorded for class c.
func (t *Traffic) Messages(c Class) int64 { return t.messages[c] }

// TotalLinkBytes returns link-bytes summed over all classes.
func (t *Traffic) TotalLinkBytes() int64 {
	var sum int64
	for _, v := range t.linkBytes {
		sum += v
	}
	return sum
}

// MissKind classifies a completed L2 miss.
type MissKind int

// Miss kinds. A cache-to-cache miss is the paper's "3-hop miss": the data
// was supplied by another processor's cache rather than by memory. An
// upgrade miss (MOSI extension) transfers no data at all: the requester
// already held the block in Owned and only needed the sharers
// invalidated.
const (
	MissFromMemory MissKind = iota
	MissCacheToCache
	MissUpgrade
	numMissKinds
)

// Latency accumulates a latency distribution.
type Latency struct {
	count int64
	sum   sim.Time
	min   sim.Time
	max   sim.Time
}

// Observe records one sample.
func (l *Latency) Observe(d sim.Time) {
	if l.count == 0 || d < l.min {
		l.min = d
	}
	if d > l.max {
		l.max = d
	}
	l.count++
	l.sum += d
}

// Count returns the number of samples.
func (l *Latency) Count() int64 { return l.count }

// Mean returns the mean sample, or 0 with no samples.
func (l *Latency) Mean() sim.Time {
	if l.count == 0 {
		return 0
	}
	return sim.Time(int64(l.sum) / l.count)
}

// Min returns the smallest sample, or 0 with no samples.
func (l *Latency) Min() sim.Time { return l.min }

// Max returns the largest sample.
func (l *Latency) Max() sim.Time { return l.max }

// Occupancy tracks the peak of a buffer occupancy (used to evaluate the
// early-processing optimization's effect on reorder-queue pressure).
// Every endpoint reports into one level, so only the peak means
// anything: it is the deepest any one queue got.
type Occupancy struct {
	max int
}

// Set reports the current occupancy level.
func (o *Occupancy) Set(level int) {
	if level > o.max {
		o.max = level
	}
}

// Max returns the peak occupancy.
func (o *Occupancy) Max() int { return o.max }

// Run aggregates everything measured during one simulation.
type Run struct {
	Traffic Traffic

	misses [numMissKinds]int64
	// Retries counts protocol-level re-requests after NACKs.
	Retries int64

	// MissLatency is the distribution over all completed misses.
	MissLatency Latency
	// CacheToCacheLatency and MemoryLatency split the distribution by
	// supplier, mirroring Table 2's rows.
	CacheToCacheLatency Latency
	MemoryLatency       Latency

	// OrderingDelay measures, for timestamp snooping, the time between a
	// transaction's arrival at an endpoint and its logical processing.
	OrderingDelay Latency

	// ReorderOccupancy tracks endpoint priority-queue pressure.
	ReorderOccupancy Occupancy

	// Runtime is the simulated execution time of the run.
	Runtime sim.Time

	// Instructions executed and memory operations issued, for MB/IPC style
	// derived metrics.
	Instructions int64
	MemOps       int64
	L2Hits       int64

	// DataTouched is the number of distinct blocks referenced times the
	// block size, in bytes (Table 3 column 2).
	DataTouched int64

	// EarlyProcessed counts transactions consumed ahead of their ordering
	// time under optimization 2.
	EarlyProcessed int64

	// Metrics is the optional telemetry snapshot (nil unless the run was
	// executed with the obs probe attached). It is attached once after
	// the measurement phase, never mutated during it, and rides the
	// Run's JSON as an omitempty block so uninstrumented renderings are
	// byte-identical to pre-telemetry ones.
	Metrics *obs.Metrics
}

// Reset zeroes all counters, preserving identity so pointers held by
// protocols and networks stay valid. The harness resets after the
// warm-up phase ("all of the workloads were run once for warm-up and
// then again for measurement").
func (r *Run) Reset() { *r = Run{} }

// AddMiss records a completed miss of the given kind with its latency.
func (r *Run) AddMiss(kind MissKind, lat sim.Time) {
	r.misses[kind]++
	r.MissLatency.Observe(lat)
	switch kind {
	case MissCacheToCache:
		r.CacheToCacheLatency.Observe(lat)
	case MissFromMemory:
		r.MemoryLatency.Observe(lat)
	}
}

// Misses returns the count of misses of kind k.
func (r *Run) Misses(k MissKind) int64 { return r.misses[k] }

// TotalMisses returns misses of all kinds.
func (r *Run) TotalMisses() int64 {
	var sum int64
	for _, v := range r.misses {
		sum += v
	}
	return sum
}

// CacheToCacheFraction returns the fraction of misses satisfied by another
// cache (Table 3 column 4), or 0 when no misses occurred.
func (r *Run) CacheToCacheFraction() float64 {
	total := r.TotalMisses()
	if total == 0 {
		return 0
	}
	return float64(r.misses[MissCacheToCache]) / float64(total)
}

// Summary renders a human-readable one-run report.
func (r *Run) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runtime        %v\n", r.Runtime)
	fmt.Fprintf(&b, "instructions   %d\n", r.Instructions)
	fmt.Fprintf(&b, "mem ops        %d (L2 hits %d)\n", r.MemOps, r.L2Hits)
	fmt.Fprintf(&b, "misses         %d (%.0f%% cache-to-cache, %d upgrades)\n",
		r.TotalMisses(), 100*r.CacheToCacheFraction(), r.Misses(MissUpgrade))
	fmt.Fprintf(&b, "miss latency   mean %v (c2c %v, mem %v)\n",
		r.MissLatency.Mean(), r.CacheToCacheLatency.Mean(), r.MemoryLatency.Mean())
	if r.Retries > 0 {
		fmt.Fprintf(&b, "nack retries   %d\n", r.Retries)
	}
	fmt.Fprintf(&b, "link traffic   %d bytes total\n", r.Traffic.TotalLinkBytes())
	for _, c := range Classes() {
		fmt.Fprintf(&b, "  %-8s %12d bytes %10d msgs\n", c, r.Traffic.LinkBytes(c), r.Traffic.Messages(c))
	}
	return b.String()
}

// NormalizeTo returns this run's total link bytes relative to base's, as
// Figure 4 plots. It returns 0 when base has no traffic.
func (r *Run) NormalizeTo(base *Run) float64 {
	bt := base.Traffic.TotalLinkBytes()
	if bt == 0 {
		return 0
	}
	return float64(r.Traffic.TotalLinkBytes()) / float64(bt)
}

// Sorted helper for deterministic map iteration in reports.
func SortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
