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
