// Package sim provides a deterministic discrete-event simulation kernel
// used by every other subsystem in this repository: the timestamp-snooping
// network, the directory protocols, the processor models, and the
// experiment harness.
//
// The kernel is intentionally small: a monotonically increasing simulated
// clock, an event queue with stable FIFO ordering for same-timestamp
// events — O(1) FIFO lanes for the few fixed delays that dominate a run
// plus a 4-ary min-heap for the rest — and a seeded pseudo-random number
// generator so that every run is exactly reproducible from its
// configuration.
package sim

import "fmt"

// Time is a simulated instant measured in integer picoseconds.
//
// Picoseconds are used (rather than nanoseconds) because the paper's
// processor model executes four billion instructions per second, i.e. one
// instruction each 250 ps; nanosecond granularity would not represent the
// instruction cost exactly.
type Time int64

// Duration is a span of simulated time, also in picoseconds.
type Duration = Time

// Convenient duration units.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Nanoseconds reports t as a floating point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a floating point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds reports t as a floating point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String renders the time in a human-friendly unit.
func (t Time) String() string {
	switch {
	case t < 10*Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < 10*Microsecond:
		return fmt.Sprintf("%.2fns", t.Nanoseconds())
	case t < 10*Millisecond:
		return fmt.Sprintf("%.2fus", t.Microseconds())
	default:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	}
}
