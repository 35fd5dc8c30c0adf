// Package simtest holds helpers for tests that drive a sim.Kernel.
package simtest

import (
	"testing"

	"tsnoop/internal/sim"
)

// RunWhile runs k while cond holds, for at most limit of simulated time.
// An address network's tokens never let the kernel run dry, so a lost
// completion would otherwise spin until the test binary's timeout. If
// cond still holds when the limit is reached or the kernel runs dry,
// RunWhile fails t, naming the condition as what.
func RunWhile(t testing.TB, k *sim.Kernel, limit sim.Duration, what string, cond func() bool) {
	start := k.Now()
	k.RunWhileBefore(start+limit, cond)
	if cond() {
		t.Helper()
		t.Fatalf("%q still holds %v after %v (limit %v)", what, k.Now()-start, start, limit)
	}
}
