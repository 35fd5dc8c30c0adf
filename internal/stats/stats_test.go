package stats

import (
	"strings"
	"testing"

	"tsnoop/internal/sim"
)

func TestTrafficAccounting(t *testing.T) {
	var tr Traffic
	tr.Add(ClassData, 3, 72)
	tr.Add(ClassData, 2, 72)
	tr.Add(ClassRequest, 21, 8)
	tr.Add(ClassNack, 3, 8)
	if got := tr.LinkBytes(ClassData); got != 5*72 {
		t.Errorf("data bytes = %d, want %d", got, 5*72)
	}
	if got := tr.LinkBytes(ClassRequest); got != 21*8 {
		t.Errorf("request bytes = %d, want %d", got, 21*8)
	}
	if got := tr.Messages(ClassData); got != 2 {
		t.Errorf("data msgs = %d, want 2", got)
	}
	want := int64(5*72 + 21*8 + 3*8)
	if got := tr.TotalLinkBytes(); got != want {
		t.Errorf("total = %d, want %d", got, want)
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		ClassData: "Data", ClassRequest: "Request", ClassNack: "Nack", ClassMisc: "Misc.",
	}
	for c, want := range names {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
	if len(Classes()) != 4 {
		t.Errorf("Classes() len = %d", len(Classes()))
	}
}

func TestLatency(t *testing.T) {
	var l Latency
	if l.Mean() != 0 {
		t.Error("empty mean not 0")
	}
	l.Observe(100)
	l.Observe(300)
	l.Observe(200)
	if l.Count() != 3 {
		t.Errorf("count = %d", l.Count())
	}
	if l.Mean() != 200 {
		t.Errorf("mean = %v, want 200", l.Mean())
	}
	if l.Min() != 100 || l.Max() != 300 {
		t.Errorf("min/max = %v/%v", l.Min(), l.Max())
	}
}

func TestOccupancy(t *testing.T) {
	var o Occupancy
	o.Set(2)
	o.Set(4)
	o.Set(0)
	if o.Max() != 4 {
		t.Errorf("max = %d, want 4", o.Max())
	}
}

func TestRunMisses(t *testing.T) {
	var r Run
	r.AddMiss(MissCacheToCache, 123*sim.Nanosecond)
	r.AddMiss(MissFromMemory, 178*sim.Nanosecond)
	r.AddMiss(MissCacheToCache, 123*sim.Nanosecond)
	if r.TotalMisses() != 3 {
		t.Errorf("total = %d", r.TotalMisses())
	}
	if got := r.CacheToCacheFraction(); got < 0.66 || got > 0.67 {
		t.Errorf("c2c fraction = %v, want 2/3", got)
	}
	if r.CacheToCacheLatency.Mean() != 123*sim.Nanosecond {
		t.Errorf("c2c mean = %v", r.CacheToCacheLatency.Mean())
	}
	if r.MemoryLatency.Count() != 1 {
		t.Errorf("memory count = %d", r.MemoryLatency.Count())
	}
}

func TestCacheToCacheFractionEmpty(t *testing.T) {
	var r Run
	if r.CacheToCacheFraction() != 0 {
		t.Error("empty run fraction != 0")
	}
}

func TestNormalizeTo(t *testing.T) {
	var base, other Run
	base.Traffic.Add(ClassData, 10, 72)
	other.Traffic.Add(ClassData, 13, 72)
	if got := other.NormalizeTo(&base); got != 1.3 {
		t.Errorf("normalized = %v, want 1.3", got)
	}
	var empty Run
	if got := other.NormalizeTo(&empty); got != 0 {
		t.Errorf("normalize to empty = %v, want 0", got)
	}
}

func TestSummaryContainsKeyFields(t *testing.T) {
	var r Run
	r.Runtime = 5 * sim.Microsecond
	r.Retries = 7
	r.AddMiss(MissFromMemory, 178*sim.Nanosecond)
	s := r.Summary()
	for _, want := range []string{"runtime", "misses", "nack retries", "Data", "Misc."} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	got := SortedKeys(m)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("SortedKeys = %v", got)
	}
}

func TestUpgradeMisses(t *testing.T) {
	var r Run
	r.AddMiss(MissUpgrade, 60*sim.Nanosecond)
	r.AddMiss(MissCacheToCache, 123*sim.Nanosecond)
	if r.TotalMisses() != 2 {
		t.Fatalf("total = %d", r.TotalMisses())
	}
	if r.Misses(MissUpgrade) != 1 {
		t.Fatalf("upgrades = %d", r.Misses(MissUpgrade))
	}
	// Upgrades dilute the cache-to-cache fraction (they are misses that
	// are neither memory- nor cache-supplied).
	if got := r.CacheToCacheFraction(); got != 0.5 {
		t.Fatalf("c2c fraction = %v", got)
	}
	if !strings.Contains(r.Summary(), "1 upgrades") {
		t.Fatal("summary missing upgrades")
	}
}
