package stats

import (
	"bytes"
	"encoding/json"
	"testing"

	"tsnoop/internal/sim"
)

// populatedRun builds a Run with every marshalled field off its zero
// value, including uneven latency distributions (whose means truncate)
// and all three miss kinds.
func populatedRun() *Run {
	r := &Run{
		Retries:        7,
		Runtime:        123456789,
		Instructions:   100200,
		MemOps:         50100,
		L2Hits:         40000,
		DataTouched:    64 * 1234,
		EarlyProcessed: 99,
	}
	r.AddMiss(MissFromMemory, 180*sim.Nanosecond)
	r.AddMiss(MissFromMemory, 181*sim.Nanosecond)
	r.AddMiss(MissCacheToCache, 120*sim.Nanosecond)
	r.AddMiss(MissCacheToCache, 125*sim.Nanosecond)
	r.AddMiss(MissCacheToCache, 131*sim.Nanosecond)
	r.AddMiss(MissUpgrade, 60*sim.Nanosecond)
	r.OrderingDelay.Observe(11)
	r.OrderingDelay.Observe(13)
	r.OrderingDelay.Observe(17)
	r.ReorderOccupancy.Set(3)
	r.ReorderOccupancy.Set(9)
	r.ReorderOccupancy.Set(0)
	r.Traffic.Add(ClassData, 3, 72)
	r.Traffic.Add(ClassData, 2, 72)
	r.Traffic.Add(ClassRequest, 4, 8)
	r.Traffic.Add(ClassNack, 1, 8)
	r.Traffic.Add(ClassMisc, 5, 8)
	return r
}

// The inverse contract behind the result store: a decoded Run marshals
// back to the identical bytes, so cached responses are byte-identical
// to freshly simulated ones.
func TestRunJSONRoundTripBytes(t *testing.T) {
	first, err := json.Marshal(populatedRun())
	if err != nil {
		t.Fatal(err)
	}
	var back Run
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip not byte-identical:\n first: %s\nsecond: %s", first, second)
	}
}

// The derived accessors the renderers use must survive the round trip.
func TestRunJSONRoundTripAccessors(t *testing.T) {
	r := populatedRun()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Run
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.TotalMisses() != r.TotalMisses() {
		t.Errorf("TotalMisses = %d, want %d", back.TotalMisses(), r.TotalMisses())
	}
	if back.CacheToCacheFraction() != r.CacheToCacheFraction() {
		t.Errorf("CacheToCacheFraction = %g, want %g", back.CacheToCacheFraction(), r.CacheToCacheFraction())
	}
	if back.Traffic.TotalLinkBytes() != r.Traffic.TotalLinkBytes() {
		t.Errorf("TotalLinkBytes = %d, want %d", back.Traffic.TotalLinkBytes(), r.Traffic.TotalLinkBytes())
	}
	for _, k := range []MissKind{MissFromMemory, MissCacheToCache, MissUpgrade} {
		if back.Misses(k) != r.Misses(k) {
			t.Errorf("Misses(%d) = %d, want %d", k, back.Misses(k), r.Misses(k))
		}
	}
	if back.MissLatency.Mean() != r.MissLatency.Mean() || back.MissLatency.Min() != r.MissLatency.Min() ||
		back.MissLatency.Max() != r.MissLatency.Max() || back.MissLatency.Count() != r.MissLatency.Count() {
		t.Errorf("MissLatency did not survive: %+v vs %+v", back.MissLatency, r.MissLatency)
	}
	if back.ReorderOccupancy.Max() != r.ReorderOccupancy.Max() {
		t.Errorf("ReorderOccupancy.Max = %d, want %d", back.ReorderOccupancy.Max(), r.ReorderOccupancy.Max())
	}
	if back.Summary() != r.Summary() {
		t.Errorf("Summary drifted:\n got:\n%s\nwant:\n%s", back.Summary(), r.Summary())
	}
}

// Corrupted documents are refused rather than silently mis-read.
func TestRunUnmarshalRejectsInconsistentTraffic(t *testing.T) {
	data, err := json.Marshal(populatedRun())
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(data, []byte(`"traffic_total_link_bytes":`), []byte(`"traffic_total_link_bytes":1`), 1)
	var back Run
	if err := json.Unmarshal(bad, &back); err == nil {
		t.Fatal("inconsistent traffic total accepted")
	}
}
