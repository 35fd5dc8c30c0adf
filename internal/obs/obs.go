// Package obs is the simulator's deterministic observability layer: a
// nil-guarded Probe that hot paths feed with dense-slice counters and
// fixed-bucket histograms, and a stable-field Metrics snapshot the
// probe renders once at the end of a run.
//
// The probe follows the same discipline as the PR 5 txnDebug hook:
// every call site is guarded by `if p := x.probe; p != nil { ... }`,
// so with metrics disabled the entire layer costs one nil check per
// site — zero allocations, no maps, no interface boxing. With metrics
// enabled the probe still never allocates on the hot path: all
// storage is fixed-size arrays plus dense slices sized once at build
// time (SizeNetwork), and histograms use fixed log2 buckets indexed
// with bits.Len64.
//
// Everything the probe records is keyed to simulated time (int64
// picoseconds) or to pure event counts — never wall clock — so a
// Metrics snapshot is a pure function of the spec and seed, and its
// JSON is byte-identical across -workers counts. The package has no
// dependency on internal/sim (times cross the boundary as plain
// int64), which lets sim, tsnet, network, stats, and both protocols
// import it without cycles.
//
// Interaction with canonical hashing: the -metrics knob rides in
// spec.Spec as an omitempty field that spec.Normalize unconditionally
// clears (the Verify pattern), so enabling telemetry never changes a
// spec.Canonical() store key. Because the content-addressed result
// store requires byte-identical payloads per key, instrumented runs
// bypass the store instead of polluting it (see cmd/tsnoop run and
// the service queue, which strips the knob).
package obs

import "math/bits"

// histBuckets is the fixed bucket count of every histogram: bucket i
// holds values whose bit length is i (i.e. [2^(i-1), 2^i)), with
// bucket 0 holding exactly zero. 48 buckets cover every int64 the
// simulator produces (picosecond latencies, queue depths).
const histBuckets = 48

// Hist is a fixed-bucket log2 histogram over non-negative int64
// samples. All fields are integers and all updates are pure integer
// arithmetic, so identical sample sequences yield identical state.
type Hist struct {
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [histBuckets]int64
}

// bucketOf maps a sample to its log2 bucket.
func bucketOf(v int64) int {
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one sample. Negative samples are clamped to zero:
// the probe only measures durations and depths, for which a negative
// value is a caller bug we degrade rather than corrupt the bucket
// index with.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// Count reports the number of samples observed.
func (h *Hist) Count() int64 { return h.count }

// summary renders the histogram's stable JSON form, trimming trailing
// empty buckets so sparse histograms stay compact.
func (h *Hist) summary() HistSummary {
	n := histBuckets
	for n > 0 && h.buckets[n-1] == 0 {
		n--
	}
	b := make([]int64, n)
	copy(b, h.buckets[:n])
	return HistSummary{
		Count:   h.count,
		Sum:     h.sum,
		Min:     h.min,
		Max:     h.max,
		Buckets: b,
	}
}

// reset zeroes the histogram in place.
func (h *Hist) reset() { *h = Hist{} }

// EventKind names the dispatch sites the probe counts. The kernel
// cannot classify events itself — event functions are not comparable
// — so each subsystem tags its own dispatches at the call site.
type EventKind uint8

const (
	// EvLinkTxn is an address transaction finishing a link transit
	// in tsnet.
	EvLinkTxn EventKind = iota
	// EvLinkToken is an isotach token finishing a link transit.
	EvLinkToken
	// EvPortService is a switch serving a buffered transaction on a
	// contended output port.
	EvPortService
	// EvOrderedHandoff is a reorder queue handing a transaction to
	// the endpoint in timestamp order.
	EvOrderedHandoff
	// EvDataMsg is a point-to-point data message delivery on the
	// unordered data fabric.
	EvDataMsg
	// EvL2Hit is a protocol L2 hit completing without a bus
	// transaction.
	EvL2Hit
	// EvDataSend is a protocol data-response send event.
	EvDataSend
	// EvRetry is a nacked request being retried (directory protocol).
	EvRetry

	numEventKinds
)

// Probe is the recording half of the layer. One probe instruments one
// System: the kernel, the ordered network, the data fabric, and the
// protocol share it. It is not safe for concurrent use — a System is
// single-threaded by construction, and seed-parallel runs each build
// their own probe.
type Probe struct {
	// Kernel-level.
	dispatches    int64
	heapPeak      int64
	scheduleDelay Hist

	// Per-event-kind dispatch counts, tagged at subsystem call sites.
	kinds [numEventKinds]int64

	// Network-level dense per-link / per-switch state, sized once by
	// SizeNetwork. linkLatPS is setup-time metadata, not samples, so
	// Reset preserves it.
	linkTxn      []int64
	linkToken    []int64
	linkLatPS    []int64
	swProps      []int64
	swStallAt    []int64 // simulated stall start per switch; -1 = not stalled
	tokenStalls  int64
	tokenStallPS Hist
	bufferOcc    Hist
	reorderOcc   Hist

	// Protocol-level.
	mshrOcc  Hist
	mshrPeak int64
	missWait Hist

	// Span layer (see span.go). spansOn gates the per-phase
	// latency-breakdown histograms; spanLog, when non-nil, captures the
	// raw span stream for the Chrome trace export.
	spansOn   bool
	spanHists [numSpanKinds]Hist
	spanLog   *SpanLog
}

// NewProbe returns an empty probe. Network slices stay empty until
// SizeNetwork is called; the slice-indexing recorders are no-ops
// before then, so a probe works (kernel + protocol only) for systems
// without an instrumented fabric.
func NewProbe() *Probe { return &Probe{} }

// SizeNetwork allocates the dense per-link and per-switch state.
// linkLatPS holds each link's transit latency in picoseconds and is
// retained (not copied samples — metadata used by Finalize to turn
// transit counts into busy time). Called once at build time; this is
// the only allocation the probe ever performs outside Finalize.
func (p *Probe) SizeNetwork(linkLatPS []int64, switches int) {
	p.linkLatPS = append([]int64(nil), linkLatPS...)
	p.linkTxn = make([]int64, len(linkLatPS))
	p.linkToken = make([]int64, len(linkLatPS))
	p.swProps = make([]int64, switches)
	p.swStallAt = make([]int64, switches)
	for i := range p.swStallAt {
		p.swStallAt[i] = -1
	}
}

// Reset zeroes every counter and histogram in place, keeping the
// dense slices (and the link-latency metadata) allocated. The system
// calls it between the warmup and measurement phases so a Metrics
// snapshot covers exactly the measured window.
func (p *Probe) Reset() {
	p.dispatches = 0
	p.heapPeak = 0
	p.scheduleDelay.reset()
	for i := range p.kinds {
		p.kinds[i] = 0
	}
	for i := range p.linkTxn {
		p.linkTxn[i] = 0
		p.linkToken[i] = 0
	}
	for i := range p.swProps {
		p.swProps[i] = 0
		p.swStallAt[i] = -1
	}
	p.tokenStalls = 0
	p.tokenStallPS.reset()
	p.bufferOcc.reset()
	p.reorderOcc.reset()
	p.mshrOcc.reset()
	p.mshrPeak = 0
	p.missWait.reset()
	for i := range p.spanHists {
		p.spanHists[i].reset()
	}
	if l := p.spanLog; l != nil {
		l.reset()
	}
}

// Dispatch counts one kernel dispatch.
func (p *Probe) Dispatch() { p.dispatches++ }

// ScheduleDelay records how far into the simulated future an event
// was scheduled (t - now at schedule time, picoseconds).
func (p *Probe) ScheduleDelay(ps int64) { p.scheduleDelay.Observe(ps) }

// HeapDepth tracks the event heap's high-water mark.
func (p *Probe) HeapDepth(n int) {
	if int64(n) > p.heapPeak {
		p.heapPeak = int64(n)
	}
}

// Event counts one dispatch of the given kind at its call site.
func (p *Probe) Event(k EventKind) { p.kinds[k]++ }

// LinkTxn counts an address-transaction transit over the given link.
func (p *Probe) LinkTxn(link int) {
	if link >= 0 && link < len(p.linkTxn) {
		p.linkTxn[link]++
	}
}

// LinkToken counts a token transit over the given link.
func (p *Probe) LinkToken(link int) {
	if link >= 0 && link < len(p.linkToken) {
		p.linkToken[link]++
	}
}

// BufferOcc samples a switch output-port buffer depth after a change.
func (p *Probe) BufferOcc(n int) { p.bufferOcc.Observe(int64(n)) }

// ReorderOcc samples an endpoint reorder-queue depth after a change.
func (p *Probe) ReorderOcc(n int) { p.reorderOcc.Observe(int64(n)) }

// TokenStall marks the given switch blocked on a zero-slack buffered
// transaction at simulated time nowPS. Repeated calls while already
// stalled are idempotent: one stall episode is counted from its first
// blocked propagation attempt until TokenAdvance.
func (p *Probe) TokenStall(sw int, nowPS int64) {
	if sw < 0 || sw >= len(p.swStallAt) {
		return
	}
	if p.swStallAt[sw] < 0 {
		p.swStallAt[sw] = nowPS
		p.tokenStalls++
	}
}

// TokenAdvance counts a successful token propagation round at the
// given switch and, if the switch was stalled, closes the stall
// episode, observing its simulated duration.
func (p *Probe) TokenAdvance(sw int, nowPS int64) {
	if sw < 0 || sw >= len(p.swProps) {
		return
	}
	p.swProps[sw]++
	if at := p.swStallAt[sw]; at >= 0 {
		p.tokenStallPS.Observe(nowPS - at)
		p.swStallAt[sw] = -1
	}
}

// MSHROcc samples the protocol's outstanding-miss count after a
// change and tracks its high-water mark.
func (p *Probe) MSHROcc(n int) {
	p.mshrOcc.Observe(int64(n))
	if int64(n) > p.mshrPeak {
		p.mshrPeak = int64(n)
	}
}

// MissWait records one completed miss's issue-to-complete simulated
// latency in picoseconds.
func (p *Probe) MissWait(ps int64) { p.missWait.Observe(ps) }

// Finalize renders the probe's state into a Metrics snapshot.
// runtimePS is the measured window's simulated duration and drives
// the per-link utilization computation: a link's busy time is its
// transit count times its latency, expressed in parts-per-million of
// the window (pure integer math). Finalize allocates (it builds the
// snapshot); it runs once, after the measurement loop.
func (p *Probe) Finalize(runtimePS int64) *Metrics {
	var util Hist
	var txn, tok int64
	for i := range p.linkTxn {
		txn += p.linkTxn[i]
		tok += p.linkToken[i]
		if runtimePS > 0 {
			busy := (p.linkTxn[i] + p.linkToken[i]) * p.linkLatPS[i]
			util.Observe(busy * 1_000_000 / runtimePS)
		}
	}
	var props int64
	for _, n := range p.swProps {
		props += n
	}
	// The latency breakdown appears only when spans were enabled, so
	// metrics-only runs render bytes identical to pre-span versions.
	var latency *LatencyBreakdown
	if p.spansOn {
		latency = &LatencyBreakdown{
			AccessPS:          p.spanHists[SpanAccess].summary(),
			MissPS:            p.spanHists[SpanMiss].summary(),
			OrderWaitPS:       p.spanHists[SpanOrderWait].summary(),
			DataAfterOrderPS:  p.spanHists[SpanDataAfterOrder].summary(),
			DataBeforeOrderPS: p.spanHists[SpanDataBeforeOrder].summary(),
			AddrFlightPS:      p.spanHists[SpanAddrFlight].summary(),
			ReorderDwellPS:    p.spanHists[SpanReorderDwell].summary(),
			BufferDwellPS:     p.spanHists[SpanBufferDwell].summary(),
			DataFlightPS:      p.spanHists[SpanDataFlight].summary(),
		}
	}
	return &Metrics{
		Kernel: KernelMetrics{
			TypedDispatches: p.dispatches,
			HeapPeak:        p.heapPeak,
			ScheduleDelayPS: p.scheduleDelay.summary(),
			Events: EventCounts{
				LinkTxn:        p.kinds[EvLinkTxn],
				LinkToken:      p.kinds[EvLinkToken],
				PortService:    p.kinds[EvPortService],
				OrderedHandoff: p.kinds[EvOrderedHandoff],
				DataMsg:        p.kinds[EvDataMsg],
				L2Hit:          p.kinds[EvL2Hit],
				DataSend:       p.kinds[EvDataSend],
				Retry:          p.kinds[EvRetry],
			},
		},
		Network: NetworkMetrics{
			Links:              int64(len(p.linkTxn)),
			LinkTxnTransits:    txn,
			LinkTokenTransits:  tok,
			LinkUtilizationPPM: util.summary(),
			TokenRounds:        props,
			TokenStalls:        p.tokenStalls,
			TokenStallPS:       p.tokenStallPS.summary(),
			BufferOccupancy:    p.bufferOcc.summary(),
			ReorderOccupancy:   p.reorderOcc.summary(),
		},
		Protocol: ProtocolMetrics{
			MSHROccupancy: p.mshrOcc.summary(),
			MSHRPeak:      p.mshrPeak,
			MissWaitPS:    p.missWait.summary(),
		},
		Latency: latency,
	}
}
