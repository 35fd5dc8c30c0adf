// Fixture for the determinism analyzer: tsnoop/internal/protocol, the
// controller core, is inside the deterministic core itself, not only a
// prefix of the protocols below it.
package protocol

import "time"

func stamp() time.Time {
	return time.Now() // want `time.Now reads the wall clock`
}

func pending(m map[int]int) int {
	n := 0
	for _, v := range m { // want `map iteration order is randomized`
		n += v
	}
	return n
}
