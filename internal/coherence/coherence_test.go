package coherence

import (
	"strings"
	"testing"
)

func TestHomeOf(t *testing.T) {
	for b := Block(0); b < 64; b++ {
		h := HomeOf(b, 16)
		if h != int(b%16) {
			t.Fatalf("HomeOf(%d,16) = %d", b, h)
		}
	}
}

func TestOracleVersionsMonotonic(t *testing.T) {
	o := NewOracle()
	if v := o.WriteVersion(1); v != 1 {
		t.Fatalf("first version = %d", v)
	}
	if v := o.WriteVersion(1); v != 2 {
		t.Fatalf("second version = %d", v)
	}
	if v := o.WriteVersion(2); v != 1 {
		t.Fatalf("other block version = %d", v)
	}
	o.Observe(0, 1, 1)
	o.Observe(0, 1, 2)
	o.Observe(1, 1, 2) // other cpu
	if o.Observations() != 3 {
		t.Fatalf("observations = %d", o.Observations())
	}
}

// observePanic reports the value Observe(cpu, b, v) panicked with, or
// nil.
func observePanic(o *Oracle, cpu int, b Block, v uint64) (r any) {
	defer func() { r = recover() }()
	o.Observe(cpu, b, v)
	return nil
}

func TestOracleDetectsRegression(t *testing.T) {
	o := NewOracle()
	o.WriteVersion(7)
	o.WriteVersion(7)
	o.Observe(3, 7, 2)
	r := observePanic(o, 3, 7, 1) // regression
	if msg, _ := r.(string); !strings.Contains(msg, "cpu 3 saw block 7 regress from version 2 to 1") {
		t.Fatalf("regression not reported: panic %v", r)
	}
}

func TestOracleSameVersionOK(t *testing.T) {
	o := NewOracle()
	o.Observe(0, 5, 3)
	if r := observePanic(o, 0, 5, 3); r != nil {
		t.Fatalf("re-observing the same version must be legal: panic %v", r)
	}
}

func TestStrings(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Fatal("op strings")
	}
	if GetS.String() != "GETS" || GetX.String() != "GETX" || PutX.String() != "PUTX" {
		t.Fatal("txn strings")
	}
}

// Blocks are numbered 0, 1, 2, ... in first-touch order; touching a
// block again returns its number, and Lookup never numbers a block.
func TestIndexFirstTouchNumbering(t *testing.T) {
	var x Index
	if _, ok := x.Lookup(5); ok || x.Len() != 0 {
		t.Fatal("empty index knows a block")
	}
	for want, b := range []Block{40, 7, 1 << 40, 0} {
		if i := x.Of(b); i != int32(want) {
			t.Fatalf("Of(%x) = %d, want %d", b, i, want)
		}
	}
	if i := x.Of(7); i != 1 {
		t.Fatalf("Of(7) again = %d, want 1", i)
	}
	if i, ok := x.Lookup(1 << 40); !ok || i != 2 {
		t.Fatalf("Lookup(1<<40) = %d, %v; want 2, true", i, ok)
	}
	if _, ok := x.Lookup(8); ok {
		t.Fatal("Lookup of an unseen block succeeded")
	}
	if x.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (Lookup must not number)", x.Len())
	}
}

// Table entries on both sides of a page boundary are distinct and stay
// in place as later pages are allocated; unwritten entries, in pages
// already allocated or not, read as zero.
func TestTablePages(t *testing.T) {
	var tb Table[uint64]
	if v := *tb.At(3); v != 0 {
		t.Fatalf("entry of a new table = %d", v)
	}
	last, first := int32(1<<pageBits-1), int32(1<<pageBits)
	p := tb.At(last)
	*p = 11
	*tb.At(first) = 22
	*tb.At(5 << pageBits) = 33 // skips pages 2 to 4
	if p != tb.At(last) || *p != 11 || *tb.At(first) != 22 || *tb.At(5 << pageBits) != 33 {
		t.Fatal("entries moved or mixed across pages")
	}
	for _, i := range []int32{0, last - 1, first + 1, 3 << pageBits, 6 << pageBits} {
		if v := *tb.At(i); v != 0 {
			t.Fatalf("unwritten entry %d reads %d", i, v)
		}
	}
}
