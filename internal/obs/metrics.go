package obs

import (
	"fmt"
	"strings"
)

// Metrics is the stable-field JSON snapshot a probe renders once per
// run. The same contract as stats.Run's JSON applies: fields may be
// added over time but never renamed, reordered, or retyped — the
// bytes are diffed across worker counts and across sessions. All
// values are integers derived from simulated time and event counts,
// so identical (spec, seed) pairs render identical bytes.
type Metrics struct {
	Kernel   KernelMetrics   `json:"kernel"`
	Network  NetworkMetrics  `json:"network"`
	Protocol ProtocolMetrics `json:"protocol"`
	// Latency is the per-phase transaction-lifecycle breakdown,
	// present only when the run was executed with spans enabled
	// (the -spans knob). A pointer with omitempty so metrics-only
	// snapshots stay byte-identical to pre-span renderings.
	Latency *LatencyBreakdown `json:"latency_breakdown,omitempty"`
}

// HistSummary is the wire form of a Hist: totals plus the log2
// buckets with trailing empties trimmed. Bucket i counts samples of
// bit length i; bucket 0 counts exact zeros.
type HistSummary struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Min     int64   `json:"min"`
	Max     int64   `json:"max"`
	Buckets []int64 `json:"buckets"`
}

// Mean reports the integer mean sample, 0 when empty.
func (h HistSummary) Mean() int64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / h.Count
}

// KernelMetrics profiles the event kernel: the dispatch count, per-kind
// counts tagged at subsystem call sites, the schedule distance
// distribution, and the high-water mark of pending events (heap +
// lanes), reported as heap_peak.
//
// ClosureDispatches is always 0: the kernel has a single, typed event
// path. The field stays because the Metrics JSON contract never removes
// a key.
type KernelMetrics struct {
	TypedDispatches   int64       `json:"typed_dispatches"`
	ClosureDispatches int64       `json:"closure_dispatches"`
	HeapPeak          int64       `json:"heap_peak"` // pending events (heap + lanes)
	ScheduleDelayPS   HistSummary `json:"schedule_delay_ps"`
	Events            EventCounts `json:"events"`
}

// EventCounts breaks dispatches down by EventKind. LinkTxn and
// LinkToken are the link-transit totals, NetworkMetrics'
// LinkTxnTransits and LinkTokenTransits.
type EventCounts struct {
	LinkTxn        int64 `json:"link_txn"`
	LinkToken      int64 `json:"link_token"`
	PortService    int64 `json:"port_service"`
	OrderedHandoff int64 `json:"ordered_handoff"`
	DataMsg        int64 `json:"data_msg"`
	L2Hit          int64 `json:"l2_hit"`
	DataSend       int64 `json:"data_send"`
	Retry          int64 `json:"retry"`
}

// NetworkMetrics covers the ordered (tsnet) fabric: link transit
// counts and utilization, token propagation and stall behavior, and
// the buffer/reorder occupancy distributions. All zero for systems
// whose protocol does not use tsnet (the directory baseline).
type NetworkMetrics struct {
	Links              int64       `json:"links"`
	LinkTxnTransits    int64       `json:"link_txn_transits"`
	LinkTokenTransits  int64       `json:"link_token_transits"`
	LinkUtilizationPPM HistSummary `json:"link_utilization_ppm"`
	TokenRounds        int64       `json:"token_rounds"`
	TokenStalls        int64       `json:"token_stalls"`
	TokenStallPS       HistSummary `json:"token_stall_ps"`
	BufferOccupancy    HistSummary `json:"buffer_occupancy"`
	ReorderOccupancy   HistSummary `json:"reorder_occupancy"`
}

// ProtocolMetrics covers the coherence protocol: MSHR occupancy and
// the miss-wait latency distribution.
type ProtocolMetrics struct {
	MSHROccupancy HistSummary `json:"mshr_occupancy"`
	MSHRPeak      int64       `json:"mshr_peak"`
	MissWaitPS    HistSummary `json:"miss_wait_ps"`
}

// LatencyBreakdown splits the transaction lifecycle into its phases,
// one histogram per SpanKind, all in simulated picoseconds. Like the
// rest of the snapshot it is derived from simulated time only, so the
// block is byte-identical at any -workers count.
type LatencyBreakdown struct {
	AccessPS          HistSummary `json:"access_ps"`
	MissPS            HistSummary `json:"miss_ps"`
	OrderWaitPS       HistSummary `json:"order_wait_ps"`
	DataAfterOrderPS  HistSummary `json:"data_after_order_ps"`
	DataBeforeOrderPS HistSummary `json:"data_before_order_ps"`
	AddrFlightPS      HistSummary `json:"addr_flight_ps"`
	ReorderDwellPS    HistSummary `json:"reorder_dwell_ps"`
	BufferDwellPS     HistSummary `json:"buffer_dwell_ps"`
	DataFlightPS      HistSummary `json:"data_flight_ps"`
}

// Summary renders a short human-readable block for tsnoop run's text
// mode. Purely derived from the snapshot, so it is as deterministic
// as the JSON.
func (m *Metrics) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "metrics:\n")
	fmt.Fprintf(&b, "  kernel      %d dispatches, heap peak %d, mean schedule delay %d ps\n",
		m.Kernel.TypedDispatches, m.Kernel.HeapPeak, m.Kernel.ScheduleDelayPS.Mean())
	e := m.Kernel.Events
	fmt.Fprintf(&b, "  events      link txn %d, token %d, port %d, handoff %d, data %d, l2 hit %d, send %d, retry %d\n",
		e.LinkTxn, e.LinkToken, e.PortService, e.OrderedHandoff, e.DataMsg, e.L2Hit, e.DataSend, e.Retry)
	n := m.Network
	if n.Links > 0 {
		fmt.Fprintf(&b, "  network     %d links, mean utilization %d ppm, %d token rounds, %d stalls (mean %d ps), buffer mean %d, reorder mean %d\n",
			n.Links, n.LinkUtilizationPPM.Mean(), n.TokenRounds, n.TokenStalls, n.TokenStallPS.Mean(),
			n.BufferOccupancy.Mean(), n.ReorderOccupancy.Mean())
	}
	fmt.Fprintf(&b, "  protocol    mshr mean %d peak %d, mean miss wait %d ps over %d misses\n",
		m.Protocol.MSHROccupancy.Mean(), m.Protocol.MSHRPeak, m.Protocol.MissWaitPS.Mean(), m.Protocol.MissWaitPS.Count)
	if l := m.Latency; l != nil {
		fmt.Fprintf(&b, "  latency     miss %d ps (order wait %d, data after %d), addr flight %d, reorder %d, buffer %d, data flight %d\n",
			l.MissPS.Mean(), l.OrderWaitPS.Mean(), l.DataAfterOrderPS.Mean(),
			l.AddrFlightPS.Mean(), l.ReorderDwellPS.Mean(), l.BufferDwellPS.Mean(), l.DataFlightPS.Mean())
	}
	return b.String()
}
