// Package tssnoop implements the paper's timestamp snooping coherence
// protocol: a write-invalidate MSI snooping protocol whose address
// transactions are broadcast over the logically ordered tsnet network and
// processed by every cache and memory controller in the identical total
// order (Section 3).
//
// Synchronous wired-OR owned/shared signals are impossible on a switched
// network, so the owned signal is replaced by the old Synapse scheme: one
// bit per block at memory records whether memory owns the block. Because
// every memory controller processes the same ordered transaction stream,
// it can also derive the identity of the current owner deterministically,
// which is what squashes stale writebacks consistently on the cache and
// memory sides without any global signal.
//
// The protocol implements both of the paper's optimizations:
//
//   - Optimization 1 (default on, as evaluated): memory and cache
//     controllers prefetch from DRAM/SRAM as soon as a transaction
//     arrives, but respond only once it is ordered.
//   - Optimization 2 (default off, as evaluated): other processors' early
//     transactions to blocks in S/I may be consumed before their ordering
//     time, guarded so that no transaction this node could still inject
//     can order before the consumed one.
package tssnoop

import (
	"fmt"

	"tsnoop/internal/cache"
	"tsnoop/internal/coherence"
	"tsnoop/internal/network"
	"tsnoop/internal/obs"
	"tsnoop/internal/protocol"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/timing"
	"tsnoop/internal/topology"
	"tsnoop/internal/tsnet"
)

// Options configures the protocol.
type Options struct {
	// Net holds the timestamp-snooping address network's design knobs;
	// the network runs on the machine's timing.
	Net tsnet.Design
	// Prefetch enables optimization 1 (start DRAM/SRAM access on early
	// arrival). The paper's evaluation enables it.
	Prefetch bool
	// EarlyProcessing enables optimization 2 (consume order-insensitive
	// transactions before their ordering time). The paper's evaluation
	// disables it.
	EarlyProcessing bool
	// Multicast enables simplified multicast snooping, the first of the
	// paper's future-work directions ("we would like to implement
	// multicast snooping [9] on these networks to reduce transaction
	// bandwidth"). GETS transactions are multicast to a predicted
	// destination set (requester, home, and the predicted owner from
	// snooped GETX traffic) instead of broadcast; the home memory
	// controller audits the mask against its owner state and, when the
	// owner was missed, re-issues the request as a full broadcast on the
	// requester's behalf (counted as a retry). GETX and PUTX remain
	// broadcasts, so ownership changes stay globally visible and masks
	// stay mostly accurate. Requires at most 64 nodes.
	Multicast bool
	// PredictorSize bounds the per-node owner predictor: 0 is unbounded,
	// a positive value evicts the oldest entries (modelling finite
	// predictor hardware, which is what makes mispredictions — and hence
	// home-audit retries — occur), and a negative value disables
	// prediction entirely (masks are requester+home only).
	PredictorSize int
	// UseOwnedState upgrades the protocol from MSI to MOSI (Section 3:
	// "timestamp snooping protocols can also support any subset of the
	// MOESI states"). With the Owned state, an owner answering a GETS
	// keeps ownership instead of writing back to memory — eliminating one
	// data message per sharing miss — and a store to an Owned block
	// upgrades in place without any data transfer. Every decision the
	// Owned state introduces is derivable from the ordered stream, so the
	// cache and memory controllers stay consistent without new signals.
	UseOwnedState bool
}

// DefaultOptions mirrors the paper's evaluated configuration.
func DefaultOptions() Options {
	return Options{Net: tsnet.DefaultConfig().Design, Prefetch: true}
}

// addrTxn travels on the address network, by value, in every copy of
// every transaction: its fields are packed into 24 bytes. requester is
// the protocol-level requester: it differs from the tsnet source only
// for multicast retries, which the home re-issues on the requester's
// behalf. A machine has at most 256 nodes, so it fits 16 bits.
type addrTxn struct {
	block coherence.Block
	// mask is the multicast destination set (all ones for broadcasts);
	// the home audits it against the owner state.
	mask      uint64
	idx       int32 // block's number in the run's Index
	requester int16
	kind      coherence.TxnKind
	// reinjected marks a home-issued full-broadcast retry of a failed
	// multicast.
	reinjected bool
}

// dataMsg travels on the unordered data virtual network, by value.
type dataMsg struct {
	block    coherence.Block
	version  uint64
	idx      int32 // block's number in the run's Index (toMemory only)
	toMemory bool
	supplier stats.MissKind // classification for the requester
}

// obligation is a foreign request that ordered after this node's own GETX
// but before the miss completed: this node is the logical owner and must
// supply once its data arrives.
type obligation struct {
	kind coherence.TxnKind
	src  int
}

// mshr tracks the node's single outstanding miss (blocking processors).
// Each node owns one mshr value that is reset and reused per miss (the
// obligations backing array survives the reset).
type mshr struct {
	block    coherence.Block
	idx      int32 // block's number in the run's Index
	op       coherence.Op
	kind     coherence.TxnKind
	issuedAt sim.Time
	done     func(coherence.AccessResult)

	ordered     bool
	dataArrived bool
	dataVersion uint64
	dataAt      sim.Time
	orderedAt   sim.Time
	supplier    stats.MissKind

	// loseCopy is set when a foreign GETX ordered after our GETS: the
	// incoming shared copy is logically invalidated before use.
	loseCopy bool
	// selfData is set when the node's own GETX ordered while it still
	// held the block in Owned (MOSI): the upgrade completes with the
	// local copy and no data message (supplier MissUpgrade).
	selfData bool
	// obligations are foreign requests this node owes data to (GETX only).
	obligations []obligation
}

// wbEntry is a writeback buffer entry: the evicted data is retained until
// the PUTX transaction is ordered (or until a foreign request ordered
// first takes the data, making the PUTX stale).
type wbEntry struct {
	version uint64
	stale   bool
}

// memState is the home memory controller's per-block state: the Synapse
// owner bit (owned; clear while memory owns the block) plus the owner
// identity derived from the ordered stream, the memory copy's version,
// and bookkeeping for writeback data still in flight. The zero memState
// is a block memory owns, untouched.
//
// dataOwed counts, over the whole ordered history, how many data messages
// memory has been promised (one per ownership-ending GETS and per valid
// PUTX); dataReceived counts arrivals. A memory response deferred behind
// in-flight writeback data waits only for the data owed at its own
// ordering point — waiting for later writebacks too would deadlock when
// the later writeback is owed by the very requester being answered.
type memState struct {
	owned        bool
	owner        int32 // the owning node while owned
	version      uint64
	dataOwed     int64
	dataReceived int64
	waiting      []memWait
}

// memWait is a deferred memory response: the data needed to send the
// memory copy to dst once dataReceived reaches need (plain data rather
// than a closure; the version is read at delivery time, exactly as the
// deferred send would).
type memWait struct {
	need  int64 // deliver once dataReceived reaches this
	ready sim.Time
	dst   int
	block coherence.Block
}

type node struct {
	p     *Protocol
	id    int
	cache *cache.Cache
	mshr  *mshr
	wb    map[coherence.Block]wbEntry
	// pred predicts the current owner per block for multicast masks,
	// learned from snooped (always-broadcast) GETX and PUTX traffic; it
	// is made only when prediction runs (see predicts). predFIFO
	// implements a bounded predictor's eviction order (an unbounded one,
	// PredictorSize 0, never evicts and keeps no FIFO).
	pred     map[coherence.Block]int
	predFIFO sim.FIFO[coherence.Block]

	// mshrStore is the node's single reusable MSHR (see mshr).
	mshrStore mshr
}

// Protocol is the timestamp snooping protocol over one topology.
type Protocol struct {
	protocol.Core[dataMsg] // caches, L2 hits, miss reports and the data network
	opts                   Options

	addr  *tsnet.Network[addrTxn]
	nodes []node
	// mem is every home memory controller's per-block state, by Index
	// number. A block's entry lives at its home (coherence.HomeOf) and
	// only the home touches it, so the machine keeps one table.
	mem coherence.Table[memState]
	// holders is a host-side shortcut, not a modelled snoop filter: for
	// each block, by Index number, holdWords words with one bit per
	// node. A node's bit is set when it fills the block (insertLine) and
	// cleared when a foreign snoop finds neither a valid line nor a
	// writeback entry, so it is set wherever the block is held. A clear
	// bit lets the node skip the handoff (see acts) or, when it still
	// snoops for its MSHR, its L2 probe. Every node still snoops every
	// transaction in simulated time.
	holders   coherence.Table[uint64]
	holdWords int32
	// handoffs carries each ordered transaction to a node's controllers
	// after the network-exit overhead Dovh. Every item takes Dovh, so
	// one batch on one lane keeps them in the logical order.
	handoffs *sim.Batch[handoff]
	// sends puts each data message on the wire at its ready time.
	sends *sim.Batch[pendingSend]
}

// handoff is an ordered transaction on its way to node's controllers.
type handoff struct {
	t       addrTxn
	arrived sim.Time
	node    int32
}

// pendingSend is a data message waiting for its ready time.
type pendingSend struct {
	src, dst int
	m        dataMsg
}

var _ coherence.Protocol = (*Protocol)(nil)

// New constructs and starts the protocol over topo, with one L2 of
// geometry cc per node. perturb, when non-nil, samples an extra delay
// for every data message. The protocol and its address network record
// into the kernel's probe.
func New(k *sim.Kernel, topo *topology.Topology, params timing.Params, cc cache.Config, run *stats.Run,
	perturb func() sim.Duration, opts Options) *Protocol {
	if opts.Multicast && topo.Nodes() > 64 {
		panic("tssnoop: multicast snooping limited to 64 nodes")
	}
	if params.Dovh <= 0 {
		// A handoff is its own item of the handoffs batch, Dovh after
		// the token wave that processed it, never part of that wave, so
		// no wave can finish an access midway: RunWhile's condition is
		// checked between items.
		panic("tssnoop: Params.Dovh must be positive")
	}
	p := &Protocol{opts: opts, holdWords: int32(topo.Nodes()+63) / 64}
	// The address network declares its link lanes, then the handoffs
	// theirs, before the core's.
	p.addr = tsnet.NewOf[addrTxn](k, topo, tsnet.Config{Params: params, Design: opts.Net}, &run.Traffic, run)
	k.Lane(params.Dovh)
	p.Init(k, topo, params, cc, run, p.dataArrive, perturb)
	p.sends = sim.NewBatch(k, p.runSend)
	p.handoffs = sim.NewBatch(k, p.runHandoff)
	p.nodes = make([]node, topo.Nodes())
	for i := range p.nodes {
		n := &p.nodes[i]
		*n = node{p: p, id: i, cache: p.Cache(i), wb: make(map[coherence.Block]wbEntry)}
		if p.predicts() {
			n.pred = make(map[coherence.Block]int)
		}
		var peek tsnet.PeekHandler[addrTxn]
		if opts.EarlyProcessing {
			peek = n.peek
		}
		p.addr.Register(i, n.order, peek)
	}
	p.addr.Start()
	return p
}

// Name implements coherence.Protocol.
func (p *Protocol) Name() string { return "TS-Snoop" }

// MemOwner returns the Synapse owner for b at its home (-1 = memory).
func (p *Protocol) MemOwner(b coherence.Block) int {
	if i, ok := p.Index.Lookup(b); ok {
		if ms := p.mem.At(i); ms.owned {
			return int(ms.owner)
		}
	}
	return -1
}

// holderBit returns the word of the holder mask of the block numbered
// idx that carries node id's bit, and that bit.
func (p *Protocol) holderBit(idx int32, id int) (*uint64, uint64) {
	return p.holders.At(idx*p.holdWords + int32(id>>6)), 1 << uint(id&63)
}

// predicts reports whether multicast owner prediction runs.
func (p *Protocol) predicts() bool { return p.opts.Multicast && p.opts.PredictorSize >= 0 }

// Access implements coherence.Protocol.
func (p *Protocol) Access(nodeID int, op coherence.Op, block coherence.Block, done func(coherence.AccessResult)) {
	n := &p.nodes[nodeID]
	if n.mshr != nil {
		panic(fmt.Sprintf("tssnoop: node %d access while miss outstanding", nodeID))
	}
	idx, hit := p.Begin(nodeID, op, block, done)
	if hit {
		return
	}

	// Miss: broadcast the appropriate transaction. A store to a Shared
	// copy issues GETX like any other store miss (no silent upgrade).
	kind := coherence.GetS
	if op == coherence.Store {
		kind = coherence.GetX
	}
	m := &n.mshrStore
	obligations := m.obligations[:0]
	*m = mshr{block: block, idx: idx, op: op, kind: kind, issuedAt: p.K.Now(), done: done}
	m.obligations = obligations
	n.mshr = m
	t := addrTxn{kind: kind, block: block, idx: idx, requester: int16(nodeID), mask: ^uint64(0)}
	if p.opts.Multicast && kind == coherence.GetS {
		t.mask = n.multicastMask(block)
		p.addr.InjectTo(nodeID, t.mask, t)
		return
	}
	p.addr.Inject(nodeID, t)
}

// multicastMask builds the predicted destination set for a GETS: the
// requester, the home, and the predicted owner when one is known.
func (n *node) multicastMask(block coherence.Block) uint64 {
	mask := uint64(1)<<uint(n.id) | uint64(1)<<uint(coherence.HomeOf(block, n.p.Topo.Nodes()))
	if owner, ok := n.pred[block]; ok {
		mask |= 1 << uint(owner)
	}
	return mask
}

// sendData transmits a data message on the data virtual network at the
// given ready time (never before now). The send always waits for its
// own turn, even when it is ready now.
func (p *Protocol) sendData(at sim.Time, src, dst int, m dataMsg) {
	p.sends.Add(max(at-p.K.Now(), 0), pendingSend{src: src, dst: dst, m: m})
}

// runSend puts a ready data message on the wire.
func (p *Protocol) runSend(s *pendingSend) {
	if pr := p.Probe; pr != nil {
		pr.Event(obs.EvDataSend)
	}
	p.Fabric.Send(0, s.src, s.dst, stats.ClassData, p.DataBytes, s.m)
}

// respondReady computes when a controller can put data on the wire for a
// transaction that physically arrived at arrivedAt and was ordered at the
// current time, given the access latency. With prefetching (optimization
// 1) the DRAM/SRAM access starts as soon as the early transaction clears
// the network-exit overhead and overlaps the wait for ordering; the
// response is gated on the logical order either way.
func (p *Protocol) respondReady(arrivedAt sim.Time, access sim.Duration) sim.Time {
	now := p.K.Now()
	if p.opts.Prefetch {
		ready := arrivedAt + p.Params.Dovh + access
		if ready < now {
			ready = now
		}
		return ready
	}
	return now + access
}

// peek implements optimization 2. Consuming early is safe only when (a)
// the transaction cannot interact with this node's current or future
// protocol state except through stable S/I snoops, and (b) no transaction
// this node could inject from now on can order before it — guaranteed when
// the arrival slack is strictly below the OT distance of a fresh
// injection.
func (n *node) peek(src int, seq uint64, t addrTxn, slackTicks int) bool {
	if src == n.id {
		return false
	}
	if coherence.HomeOf(t.block, n.p.Topo.Nodes()) == n.id {
		return false // the home memory controller needs the total order
	}
	minInjectOT := n.p.opts.Net.TokensPerPort*n.p.Topo.Dmax(n.id) + n.p.opts.Net.InitialSlack
	if slackTicks >= minInjectOT {
		return false
	}
	if n.mshr != nil && n.mshr.block == t.block {
		return false
	}
	if _, ok := n.wb[t.block]; ok {
		return false
	}
	state, _ := n.cache.Peek(t.block)
	switch t.kind {
	case coherence.PutX:
		return true
	case coherence.GetS:
		return state == cache.Invalid || state == cache.Shared
	case coherence.GetX:
		if state == cache.Shared {
			n.cache.SetState(t.block, cache.Invalid) // early invalidation
			return true
		}
		return state == cache.Invalid
	}
	return false
}

// order receives one transaction from the global logical order at its
// processing time, and hands it to the node's controllers after the
// network-exit overhead when the node may act on it. Under Verify, a
// node that skips a request checks right away that it holds nothing.
func (n *node) order(_ int, _ uint64, t addrTxn, arrived sim.Time) {
	if n.acts(&t) {
		n.p.handoffs.Add(n.p.Params.Dovh, handoff{t: t, arrived: arrived, node: int32(n.id)})
	} else if n.p.opts.Net.Verify && t.kind != coherence.PutX {
		n.mustNotHold(t.block)
	}
}

// acts reports whether the node's snoop of t, Dovh from now, may do
// anything. The requester, the home and an owner predictor always act;
// elsewhere a writeback does nothing. Otherwise the node acts
// only when it has an MSHR for the block, in any state, or its holder
// bit is set. Without either, no fill of the block can land before the
// handoff runs: a miss the node issues from now on orders after t, and
// its own handoff runs after t's in the batch's FIFO order. So the
// snoop would find no ordered MSHR and a clear holder bit, and return.
func (n *node) acts(t *addrTxn) bool {
	if int(t.requester) == n.id || n.p.predicts() || coherence.HomeOf(t.block, n.p.Topo.Nodes()) == n.id {
		return true
	}
	if t.kind == coherence.PutX {
		return false
	}
	if m := n.mshr; m != nil && m.block == t.block {
		return true
	}
	held, bit := n.p.holderBit(t.idx, n.id)
	return *held&bit != 0
}

// runHandoff completes a handoff after the network-exit overhead.
func (p *Protocol) runHandoff(h *handoff) { p.nodes[h.node].snoop(&h.t, h.arrived) }

// snoop processes one transaction from the global logical order: first the
// cache-controller side, then (when this node is the block's home) the
// memory-controller side.
func (n *node) snoop(t *addrTxn, arrived sim.Time) {
	req := int(t.requester)
	if req == n.id {
		n.snoopOwn(t)
	} else {
		n.snoopForeign(req, t, arrived)
	}
	if coherence.HomeOf(t.block, n.p.Topo.Nodes()) == n.id {
		n.memorySide(req, t, arrived)
	}
}

func (n *node) snoopOwn(t *addrTxn) {
	switch t.kind {
	case coherence.GetS, coherence.GetX:
		m := n.mshr
		if t.reinjected {
			// A home-issued retry of our failed multicast: the original
			// multicast already marked the miss ordered; the retry only
			// exists so the (missed) owner finally sees the request.
			return
		}
		if m == nil || m.block != t.block || m.kind != t.kind {
			panic(fmt.Sprintf("tssnoop: node %d own %v ordered without matching MSHR", n.id, t.kind))
		}
		m.ordered = true
		m.orderedAt = n.p.K.Now()
		if t.kind == coherence.GetX && !m.dataArrived {
			// MOSI: a store upgrade whose Owned copy survived to the
			// ordering point needs no data — the sharers invalidated on
			// this same transaction and the local copy is current.
			if state, version := n.cache.Peek(t.block); state == cache.Owned {
				m.dataArrived = true
				m.dataVersion = version
				m.selfData = true
				m.supplier = stats.MissUpgrade
			}
		}
		if m.dataArrived {
			n.complete(m)
		}
	case coherence.PutX:
		wb, ok := n.wb[t.block]
		if !ok {
			panic(fmt.Sprintf("tssnoop: node %d own PUTX ordered without writeback entry", n.id))
		}
		delete(n.wb, t.block)
		if !wb.stale {
			home := coherence.HomeOf(t.block, n.p.Topo.Nodes())
			n.p.sendData(n.p.K.Now(), n.id, home, dataMsg{block: t.block, idx: t.idx, toMemory: true, version: wb.version})
		}
	}
}

func (n *node) snoopForeign(src int, t *addrTxn, arrived sim.Time) {
	if n.p.predicts() {
		// Owner prediction from the always-broadcast transactions.
		switch t.kind {
		case coherence.GetX:
			if _, known := n.pred[t.block]; !known {
				if max := n.p.opts.PredictorSize; max > 0 {
					n.predFIFO.Push(t.block)
					if n.predFIFO.Len() > max {
						delete(n.pred, n.predFIFO.Pop())
					}
				}
			}
			n.pred[t.block] = src
		case coherence.PutX:
			delete(n.pred, t.block)
		}
	}
	if t.kind == coherence.PutX {
		return // foreign writebacks have no cache-side effect
	}
	// A foreign request ordered after our own ordered-but-incomplete GETX
	// finds us as the logical owner: defer the supply to completion.
	if m := n.mshr; m != nil && m.block == t.block && m.ordered {
		if m.kind == coherence.GetX {
			m.obligations = append(m.obligations, obligation{kind: t.kind, src: src})
			return
		}
		// Our GETS ordered first; a foreign GETX ordered behind it takes
		// the incoming copy away before we can cache it.
		if t.kind == coherence.GetX {
			m.loseCopy = true
		}
		return
	}
	// A node whose holder bit is clear holds nothing to snoop.
	held, bit := n.p.holderBit(t.idx, n.id)
	if *held&bit == 0 {
		if n.p.opts.Net.Verify {
			n.mustNotHold(t.block)
		}
		return
	}
	ready := n.p.respondReady(arrived, n.p.Params.Dcache)
	if state, version := n.cache.Peek(t.block); state != cache.Invalid {
		if s := n.answer(t.kind, src, t.block, t.idx, state, version, ready); s != state {
			n.cache.SetState(t.block, s)
		}
		return
	}
	// A writeback entry whose PUTX has not ordered is still the owner in
	// logical order and answers as a Modified line would. It goes stale
	// unless it stays the owner, which only a MOSI GETS allows; memory's
	// view of the owner makes the same choice.
	wb, ok := n.wb[t.block]
	if !ok {
		*held &^= bit // the block left: skip later probes
		return
	}
	if !wb.stale && !n.answer(t.kind, src, t.block, t.idx, cache.Modified, wb.version, ready).Dirty() {
		wb.stale = true
		n.wb[t.block] = wb
	}
}

// answer applies the owner rule to a foreign request of kind from src
// for block b, numbered idx, that finds this node's copy in state s with
// the given version, and returns the copy's next state. A Modified or
// Owned copy is the logical owner and supplies src at ready. On a GETS,
// MSI also writes the copy back to memory, which owns the block again,
// and leaves it Shared; MOSI keeps it Owned. A GETX leaves every copy
// Invalid, and a GETS leaves a Shared or Invalid copy alone.
func (n *node) answer(kind coherence.TxnKind, src int, b coherence.Block, idx int32, s cache.State, version uint64, ready sim.Time) cache.State {
	if s.Dirty() {
		n.p.sendData(ready, n.id, src, dataMsg{block: b, version: version, supplier: stats.MissCacheToCache})
		if kind == coherence.GetS {
			if n.p.opts.UseOwnedState {
				return cache.Owned
			}
			home := coherence.HomeOf(b, n.p.Topo.Nodes())
			n.p.sendData(ready, n.id, home, dataMsg{block: b, idx: idx, toMemory: true, version: version})
			return cache.Shared
		}
	}
	if kind == coherence.GetX {
		return cache.Invalid
	}
	return s
}

// mustNotHold panics unless the node's L2 and writeback buffer both miss
// b: a snoop that its holder bit let skip the probe must have found
// nothing (Verify only).
func (n *node) mustNotHold(b coherence.Block) {
	if state, _ := n.cache.Peek(b); state != cache.Invalid {
		panic(fmt.Sprintf("tssnoop: node %d skipped the snoop of block %x it holds in %v", n.id, b, state))
	}
	if _, ok := n.wb[b]; ok {
		panic(fmt.Sprintf("tssnoop: node %d skipped the snoop of block %x in its writeback buffer", n.id, b))
	}
}

// memorySide maintains the Synapse owner state and responds from memory
// when memory owns the block.
func (n *node) memorySide(src int, t *addrTxn, arrived sim.Time) {
	ms := n.p.mem.At(t.idx)
	switch t.kind {
	case coherence.GetS:
		if ms.owned && t.mask != ^uint64(0) && t.mask&(1<<uint(ms.owner)) == 0 {
			// Multicast audit failure: the owner was not in the predicted
			// destination set, so nobody can supply. (A broadcast reaches
			// every owner; on a machine above 64 nodes, where multicast
			// is off, an owner's bit would not even fit the mask, so
			// broadcasts skip the audit.) Re-issue the request
			// as a full broadcast on the requester's behalf; this ordered
			// instance has no effect anywhere (the owner never saw it and
			// every member's cache action for a GETS at S/I is a no-op).
			n.p.Run.Retries++
			n.p.addr.Inject(n.id, addrTxn{
				kind:       coherence.GetS,
				block:      t.block,
				idx:        t.idx,
				requester:  int16(src),
				mask:       ^uint64(0),
				reinjected: true,
			})
			return
		}
		if !ms.owned {
			n.memRespond(ms, src, t.block, arrived)
		} else {
			if int(ms.owner) == src {
				panic("tssnoop: owner issued GETS for its own block")
			}
			if !n.p.opts.UseOwnedState {
				// MSI: the owner supplies and writes back: memory owns
				// again and owes one incoming data message. MOSI: the
				// owner keeps ownership in Owned; memory does nothing.
				ms.owned = false
				ms.dataOwed++
			}
		}
	case coherence.GetX:
		if !ms.owned {
			n.memRespond(ms, src, t.block, arrived)
		} else if int(ms.owner) == src && !n.p.opts.UseOwnedState {
			// MOSI allows this: an Owned holder upgrading in place.
			panic("tssnoop: owner issued GETX for its own block")
		}
		ms.owned, ms.owner = true, int32(src)
	case coherence.PutX:
		if ms.owned && int(ms.owner) == src {
			ms.owned = false
			ms.dataOwed++
		}
		// Otherwise the writeback is stale: a request ordered between its
		// injection and now already moved ownership; the cache side made
		// the same decision from the same ordered prefix.
	}
}

// memRespond sends the memory copy to a requester, deferring while
// writeback data that logically precedes this transaction is in flight.
// A deferred response reads the memory version at delivery time, exactly
// as an immediate one reads it now.
func (n *node) memRespond(ms *memState, src int, b coherence.Block, arrived sim.Time) {
	ready := n.p.respondReady(arrived, n.p.Params.Dmem)
	if ms.dataReceived < ms.dataOwed {
		ms.waiting = append(ms.waiting, memWait{need: ms.dataOwed, ready: ready, dst: src, block: b})
		return
	}
	n.p.sendData(ready, n.id, src, dataMsg{block: b, version: ms.version, supplier: stats.MissFromMemory})
}

// dataArrive handles data network deliveries at node msg.Dst: either a
// writeback into its memory (msg.Dst is the block's home) or the fill
// for its outstanding miss.
func (p *Protocol) dataArrive(msg network.Message[dataMsg]) {
	n := &p.nodes[msg.Dst]
	d := msg.Payload
	if d.toMemory {
		// The sender's endpoint may run physically ahead of the home's,
		// so the home may not have processed the block yet; its entry
		// then still reads memory-owned, exactly as the ordered
		// processing will find it.
		ms := p.mem.At(d.idx)
		// Writeback data can arrive out of order on the unordered data
		// network; versions are monotonic, so the newest write wins.
		if d.version > ms.version {
			ms.version = d.version
		}
		// dataReceived may transiently LEAD dataOwed: endpoints process
		// the logical order at skewed physical times (especially under
		// contention), so an owner's writeback can land before the home
		// endpoint has processed the transaction that owes it. The
		// ledger still balances — dataOwed catches up when the home's
		// ordered processing reaches that transaction — and a deferral
		// registered then finds its need already satisfied.
		ms.dataReceived++
		for len(ms.waiting) > 0 && ms.waiting[0].need <= ms.dataReceived {
			w := ms.waiting[0]
			ms.waiting = ms.waiting[1:]
			p.sendData(w.ready, n.id, w.dst, dataMsg{block: w.block, version: ms.version, supplier: stats.MissFromMemory})
		}
		return
	}
	m := n.mshr
	if m == nil || m.block != d.block {
		panic(fmt.Sprintf("tssnoop: node %d fill for unexpected block %x", n.id, d.block))
	}
	m.dataArrived = true
	m.dataVersion = d.version
	m.dataAt = p.K.Now()
	m.supplier = d.supplier
	if m.ordered {
		n.complete(m)
	}
}

// complete finishes a miss: insert the line, perform the store, apply any
// ownership obligations accumulated while the fill was in flight, and
// release the processor.
func (n *node) complete(m *mshr) {
	now := n.p.K.Now()
	n.mshr = nil

	version := m.dataVersion
	if m.kind == coherence.GetS {
		if !m.loseCopy {
			n.insertLine(m.block, m.idx, cache.Shared, version)
		}
	} else {
		if m.op == coherence.Store {
			version = n.p.Oracle().WriteVersion(m.idx)
		}
		n.insertLine(m.block, m.idx, cache.Modified, version)
		// Answer deferred foreign requests in their ordered sequence.
		state := cache.Modified
		for _, ob := range m.obligations {
			state = n.answer(ob.kind, ob.src, m.block, m.idx, state, version, now+n.p.Params.Dcache)
		}
		if state != cache.Modified {
			n.cache.SetState(m.block, state)
		}
	}

	n.p.Complete(n.id, m.block, m.supplier, m.issuedAt, version, m.done, m)
}

// Spans records the miss's lifecycle phases after its whole-miss span
// (protocol.Phases), all on the node's MSHR lane (tid 1; the blocking
// protocol has one MSHR slot per node): the slice spent waiting for the
// ordering point, and the data phase relative to it. A MOSI self-upgrade
// (selfData) moves no data, so it records no data phase.
func (m *mshr) Spans(pr *obs.Probe, id int32) {
	lane := obs.LaneMSHR0
	pr.Span(obs.SpanOrderWait, id, lane, id, 0, int64(m.issuedAt), int64(m.orderedAt-m.issuedAt))
	if m.selfData {
		return
	}
	if m.dataAt >= m.orderedAt {
		pr.Span(obs.SpanDataAfterOrder, id, lane, id, 0, int64(m.orderedAt), int64(m.dataAt-m.orderedAt))
	} else {
		pr.Span(obs.SpanDataBeforeOrder, id, lane, id, 0, int64(m.dataAt), int64(m.orderedAt-m.dataAt))
	}
}

// insertLine fills block b, numbered idx, and sets the node's holder
// bit. It handles victim eviction: a Modified victim enters the
// writeback buffer and broadcasts PUTX; a Shared victim is dropped
// silently (the protocols "allow processors to silently downgrade from S
// to I"). Either way the victim's holder bit stays set until a snoop
// finds the block gone. The filled block has no writeback entry, since
// its PUTX orders before the node's own later miss; Verify checks this,
// so snoopForeign reads the buffer only for an invalid line.
func (n *node) insertLine(b coherence.Block, idx int32, s cache.State, version uint64) {
	if n.p.opts.Net.Verify {
		if _, ok := n.wb[b]; ok {
			panic(fmt.Sprintf("tssnoop: node %d fills block %x with its writeback pending", n.id, b))
		}
	}
	held, bit := n.p.holderBit(idx, n.id)
	*held |= bit
	victim, evicted := n.cache.Insert(b, s, version)
	if !evicted {
		return
	}
	if victim.State.Dirty() {
		if _, dup := n.wb[victim.Block]; dup {
			panic(fmt.Sprintf("tssnoop: node %d duplicate writeback for %x", n.id, victim.Block))
		}
		n.wb[victim.Block] = wbEntry{version: victim.Version}
		vi := n.p.VictimIndex(n.id, victim.Block)
		// The requester must name the evicting node: snoop dispatches
		// own-vs-foreign on it, so leaving it zero would misroute every
		// writeback from a node other than 0 (node 0 would claim it and
		// panic on its missing writeback entry).
		n.p.addr.Inject(n.id, addrTxn{kind: coherence.PutX, block: victim.Block, idx: vi, requester: int16(n.id)})
	}
}
