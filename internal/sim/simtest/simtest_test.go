package simtest

import (
	"fmt"
	"strings"
	"testing"

	"tsnoop/internal/sim"
)

// recorder is a testing.TB that keeps its Fatalf message instead of
// stopping the test.
type recorder struct {
	testing.TB
	failed string
}

func (r *recorder) Helper() {}

func (r *recorder) Fatalf(format string, args ...any) { r.failed = fmt.Sprintf(format, args...) }

// A run that never goes idle stops at the limit and fails, naming its
// condition; one whose condition turns false in time passes.
func TestRunWhileStopsAtLimit(t *testing.T) {
	k := sim.NewKernel()
	ticks := 0
	var tick *sim.Batch[struct{}]
	tick = sim.NewBatch(k, func(*struct{}) {
		ticks++
		tick.Add(sim.Nanosecond, struct{}{})
	})
	tick.Add(0, struct{}{})

	r := &recorder{}
	RunWhile(r, k, 10*sim.Nanosecond, "never done", func() bool { return true })
	if !strings.Contains(r.failed, `"never done" still holds`) {
		t.Fatalf("endless run failed with %q", r.failed)
	}
	if k.Now() >= 10*sim.Nanosecond {
		t.Fatalf("clock ran to %v, past the 10ns limit", k.Now())
	}

	r = &recorder{}
	want := ticks + 5
	RunWhile(r, k, 10*sim.Nanosecond, "ticks short", func() bool { return ticks < want })
	if r.failed != "" || ticks != want {
		t.Fatalf("bounded run: ticks %d (want %d), failure %q", ticks, want, r.failed)
	}
}
