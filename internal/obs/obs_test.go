package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestHistBucketing(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, -5} {
		h.Observe(v)
	}
	s := h.summary()
	// -5 clamps to zero, so two zeros in bucket 0; 1 has bit length 1;
	// 2 and 3 length 2; 4 and 7 length 3; 8 length 4.
	want := []int64{2, 1, 2, 2, 1}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Errorf("buckets = %v, want %v", s.Buckets, want)
	}
	if s.Count != 8 || s.Min != 0 || s.Max != 8 {
		t.Errorf("count/min/max = %d/%d/%d, want 8/0/8", s.Count, s.Min, s.Max)
	}
	if s.Sum != 0+1+2+3+4+7+8+0 {
		t.Errorf("sum = %d, want 25", s.Sum)
	}
}

func TestHistSummaryTrimsTrailingZeros(t *testing.T) {
	var h Hist
	h.Observe(1)
	if got := len(h.summary().Buckets); got != 2 {
		t.Errorf("buckets length = %d, want 2 (trailing empties trimmed)", got)
	}
	var empty Hist
	if got := len(empty.summary().Buckets); got != 0 {
		t.Errorf("empty histogram buckets length = %d, want 0", got)
	}
}

func TestHistSummaryMean(t *testing.T) {
	s := HistSummary{Count: 4, Sum: 10}
	if s.Mean() != 2 {
		t.Errorf("Mean() = %d, want 2", s.Mean())
	}
	if (HistSummary{}).Mean() != 0 {
		t.Error("empty Mean() should be 0")
	}
}

func TestTokenStallEpisodes(t *testing.T) {
	p := NewProbe()
	p.SizeNetwork([]int64{10, 10}, 2)
	// Two blocked attempts inside one episode count one stall.
	p.TokenStall(0, 100)
	p.TokenStall(0, 200)
	p.TokenAdvance(0, 350)
	// A later episode on the same switch counts again.
	p.TokenStall(0, 400)
	p.TokenAdvance(0, 450)
	// An advance without a stall is just a round.
	p.TokenAdvance(1, 500)
	m := p.Finalize(1000)
	if m.Network.TokenStalls != 2 {
		t.Errorf("stalls = %d, want 2", m.Network.TokenStalls)
	}
	if m.Network.TokenRounds != 3 {
		t.Errorf("rounds = %d, want 3", m.Network.TokenRounds)
	}
	// Durations: 350-100=250 and 450-400=50.
	if m.Network.TokenStallPS.Sum != 300 || m.Network.TokenStallPS.Count != 2 {
		t.Errorf("stall hist = %+v, want sum 300 count 2", m.Network.TokenStallPS)
	}
}

func TestFinalizeLinkUtilization(t *testing.T) {
	p := NewProbe()
	p.SizeNetwork([]int64{100, 200}, 1)
	// Link 0: 3 txn + 1 token transits at 100 ps = 400 ps busy of a
	// 1000 ps window = 400000 ppm. Link 1 idle = 0 ppm.
	p.LinkTxn(0)
	p.LinkTxn(0)
	p.LinkTxn(0)
	p.LinkToken(0)
	m := p.Finalize(1000)
	u := m.Network.LinkUtilizationPPM
	if u.Count != 2 || u.Max != 400000 || u.Min != 0 {
		t.Errorf("utilization = %+v, want count 2 min 0 max 400000", u)
	}
	if m.Network.LinkTxnTransits != 3 || m.Network.LinkTokenTransits != 1 {
		t.Errorf("transits = %d/%d, want 3/1", m.Network.LinkTxnTransits, m.Network.LinkTokenTransits)
	}
	// Out-of-range links are no-ops, not panics.
	p.LinkTxn(99)
	p.LinkToken(-1)
}

func TestResetKeepsNetworkShape(t *testing.T) {
	p := NewProbe()
	p.SizeNetwork([]int64{50}, 1)
	p.Dispatch()
	p.LinkTxn(0)
	p.TokenStall(0, 10)
	p.MSHROcc(3)
	p.HeapDepth(7)
	p.Reset()
	m := p.Finalize(1000)
	if m.Kernel.TypedDispatches != 0 || m.Kernel.Events.LinkTxn != 0 ||
		m.Kernel.HeapPeak != 0 || m.Protocol.MSHRPeak != 0 {
		t.Errorf("Reset left counters: %+v", m)
	}
	if m.Network.Links != 1 {
		t.Errorf("Reset dropped the network shape: links = %d, want 1", m.Network.Links)
	}
	// The stall episode opened before Reset must not close after it.
	p.TokenAdvance(0, 2000)
	m = p.Finalize(1000)
	if m.Network.TokenStallPS.Count != 0 {
		t.Error("Reset should clear in-progress stall episodes")
	}
}

func TestMetricsJSONRoundTrip(t *testing.T) {
	p := NewProbe()
	p.SizeNetwork([]int64{100}, 1)
	p.Dispatch()
	p.Dispatch()
	p.ScheduleDelay(500)
	p.Event(EvDataMsg)
	p.LinkTxn(0)
	p.BufferOcc(2)
	p.ReorderOcc(1)
	p.MSHROcc(4)
	p.MissWait(12345)
	m := p.Finalize(10000)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Metrics
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*m, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, *m)
	}
	data2, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("Marshal is not byte-stable")
	}
}

func TestSummaryMentionsSections(t *testing.T) {
	p := NewProbe()
	p.SizeNetwork([]int64{100}, 1)
	s := p.Finalize(1000).Summary()
	for _, want := range []string{"metrics:", "kernel", "events", "network", "protocol"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary missing %q:\n%s", want, s)
		}
	}
	// Without a sized network the network line is omitted.
	s = NewProbe().Finalize(1000).Summary()
	if strings.Contains(s, "network") {
		t.Errorf("Summary should omit the network line for fabric-less systems:\n%s", s)
	}
}
