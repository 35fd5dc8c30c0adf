package sim

import "testing"

// TestFIFOOrderAcrossWrap pushes and pops through several wrap-arounds
// and growths with the queue never empty: elements come out in push
// order.
func TestFIFOOrderAcrossWrap(t *testing.T) {
	var f FIFO[int]
	next, want := 0, 0
	for round := 1; round <= 40; round++ {
		for i := 0; i < round; i++ { // occupancy creeps up by one per round
			f.Push(next)
			next++
		}
		for i := 0; i < round-1; i++ {
			if got := f.Pop(); got != want {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, want)
			}
			want++
		}
		if f.Len() != next-want {
			t.Fatalf("round %d: Len = %d, want %d", round, f.Len(), next-want)
		}
		if p := f.Peek(); p == nil || *p != want {
			t.Fatalf("round %d: Peek = %v, want %d", round, p, want)
		}
	}
}

// TestFIFONeverEmptyBounded keeps the queue non-empty for 1e6 push/pop
// pairs, as a kernel lane is while tokens circulate: the backing array
// must stay within twice the peak occupancy (a queue that only reset
// its storage when drained would grow without bound) and the steady
// state must not allocate.
func TestFIFONeverEmptyBounded(t *testing.T) {
	const peak = 93
	var f FIFO[event]
	for i := 0; i < peak; i++ {
		f.Push(event{seq: uint64(i)})
	}
	seq := uint64(peak)
	pair := func() {
		f.Pop()
		f.Push(event{seq: seq})
		seq++
	}
	for i := 0; i < 1_000_000; i++ {
		pair()
	}
	if c := f.Cap(); c > 2*peak {
		t.Fatalf("Cap = %d after 1e6 never-empty push/pop pairs, want <= %d", c, 2*peak)
	}
	if f.Len() != peak || f.Peek().seq != seq-peak {
		t.Fatalf("Len = %d, head seq = %d; want %d, %d", f.Len(), f.Peek().seq, peak, seq-peak)
	}
	if a := testing.AllocsPerRun(1000, pair); a != 0 {
		t.Fatalf("never-empty push/pop allocates %v/op, want 0", a)
	}
}

func TestFIFOPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop of an empty FIFO did not panic")
		}
	}()
	var f FIFO[int]
	f.Push(1)
	f.Pop()
	f.Pop()
}
