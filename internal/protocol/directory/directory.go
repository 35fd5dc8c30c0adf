// Package directory implements the paper's two directory-protocol
// baselines over unordered point-to-point networks:
//
//   - DirClassic is modelled after the SGI Origin 2000 protocol: a full
//     bit-vector directory at each home, busy states, and negative
//     acknowledgements (NACKs) when a request hits a busy entry, with the
//     requester retrying after a backoff. Invalidation acknowledgements
//     are collected by the requester.
//
//   - DirOpt follows the recent nack-free designs the paper cites
//     (AlphaServer GS320): requests that find the entry busy are queued at
//     the home in arrival order, forwarded requests travel on a
//     point-to-point ordered virtual network, and invalidations need no
//     acknowledgements. As in the GS320, a store therefore completes
//     while its invalidations may still be in flight; a remote sharer can
//     briefly hit its old copy, which is coherent (the load orders before
//     the store) but weaker than DirClassic's ack-synchronized stores.
//
// Both are MSI protocols on three virtual networks (request, forward,
// response) and share the cache, writeback-buffer and retry scaffolding.
// A cache-to-cache transfer is a three-hop transaction: requester -> home
// (directory lookup) -> owner -> requester, which is why its unloaded
// latency (252 ns on the butterfly) is roughly double timestamp
// snooping's.
package directory

import (
	"fmt"
	"math/bits"

	"tsnoop/internal/cache"
	"tsnoop/internal/coherence"
	"tsnoop/internal/network"
	"tsnoop/internal/obs"
	"tsnoop/internal/protocol"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/timing"
	"tsnoop/internal/topology"
)

// Variant selects the protocol flavour.
type Variant int

// Variants.
const (
	Classic Variant = iota
	Opt
)

func (v Variant) String() string {
	if v == Classic {
		return "DirClassic"
	}
	return "DirOpt"
}

// Virtual network numbers.
const (
	vnetRequest  = 0
	vnetForward  = 1
	vnetResponse = 2
)

// retryBackoff is the base delay before re-sending a nacked request
// (DirClassic); each retry adds uniform jitter of the same magnitude.
const retryBackoff = 60 * sim.Nanosecond

// Options configures a directory protocol instance.
type Options struct {
	Variant Variant
	// RetrySeed seeds the per-node backoff jitter.
	RetrySeed uint64
}

// message kinds on the three virtual networks.
type msgKind uint8

const (
	mReq      msgKind = iota // requester -> home: GETS/GETX
	mNack                    // home -> requester (Classic)
	mData                    // data response to requester
	mFwd                     // home -> owner intervention
	mInval                   // home -> sharer invalidation
	mInvAck                  // sharer -> requester (Classic)
	mRevision                // owner -> home after intervention
	mWB                      // owner -> home writeback (carries data)
	mWBAck                   // home -> owner
)

// msg is a protocol message, sent by value. Its byte-sized fields and
// idx share the first word, so a message fits in 32 bytes.
type msg struct {
	kind msgKind
	txn  coherence.TxnKind
	// keepCopy on a GETS revision: whether the old owner retained a
	// shared copy (false when it supplied from its writeback buffer).
	keepCopy bool
	supplier stats.MissKind
	// idx is block's number in the run's Index, on every message the
	// home reads its entry for: mReq, mFwd, mRevision and mWB.
	idx       int32
	block     coherence.Block
	requester int16
	// ackCount rides on mData (Classic GETX): invalidation acks the
	// requester must collect before completing.
	ackCount int32
	version  uint64
}

// dirState is the home directory entry state.
type dirState uint8

const (
	dirU dirState = iota // memory owns, no sharers
	dirS                 // shared by the bit vector
	dirE                 // exclusive at owner
)

// dirEntry is one block's full-bit-vector directory entry. Its zero
// value is the initial state: memory owns the block and no node shares
// it. owner is meaningful only in dirE. Node numbers fit in an int16,
// since a directory has at most 64 nodes; the entry is 72 bytes.
type dirEntry struct {
	state dirState
	// busy marks an outstanding intervention episode (E-state requests).
	busy    bool
	busyTxn coherence.TxnKind
	owner   int16
	busyReq int16
	sharers uint64
	version uint64

	// heldWB holds writebacks that arrived during a busy episode: usually
	// the old owner's (its intervention is served from the writeback
	// buffer), but under perturbation also the incoming owner's, when its
	// eviction outruns the revision.
	heldWB []msg
	// queue holds requests that arrived while busy (DirOpt only).
	queue []msg
}

type mshr struct {
	block    coherence.Block
	idx      int32 // block's number in the run's Index, for WriteVersion
	op       coherence.Op
	txn      coherence.TxnKind
	issuedAt sim.Time
	done     func(coherence.AccessResult)

	dataArrived bool
	version     uint64
	supplier    stats.MissKind
	acksNeeded  int
	acksSeen    int
	haveAckInfo bool
	// invalVersion is the highest version an invalidation that arrived
	// while this (GETS) miss was outstanding was killing: if the fill's
	// version is not newer, the copy was invalidated before it could be
	// installed and must not be cached (the load itself is still legal —
	// it is ordered before the invalidating store).
	invalVersion uint64
	sawInval     bool
	// deferred holds interventions that arrived before this GETX's fill
	// did (the home granted ownership while the fill was still in
	// flight); they are served once the miss completes.
	deferred []msg
}

type node struct {
	p     *Protocol
	id    int
	cache *cache.Cache
	mshr  *mshr
	// wb is the writeback buffer: each evicted Modified block's version,
	// held until the home acknowledges the writeback.
	wb  map[coherence.Block]uint64
	rng *sim.Rand

	// mshrStore is the node's single reusable MSHR: one miss is
	// outstanding per node (blocking processors), so the value is reset
	// and reused rather than allocated per miss.
	mshrStore mshr
}

// Protocol is one directory protocol instance over a topology.
type Protocol struct {
	protocol.Core[msg] // caches, L2 hits, miss reports and the three vnets
	opts               Options

	nodes []node
	// dir is every home directory's entries, by Index number. A block's
	// entry lives at its home (coherence.HomeOf) and only the home
	// touches it, so the machine keeps one table.
	dir coherence.Table[dirEntry]
	// sends puts each message that waits for a ready time on the wire.
	sends *sim.Batch[pendingSend]
	// retries re-sends each nacked request after its backoff.
	retries *sim.Batch[retry]
}

// retry is a nacked request waiting out its backoff: the node and the
// block whose miss it retries.
type retry struct {
	node  int32
	block coherence.Block
}

// pendingSend is a message waiting for its ready time.
type pendingSend struct {
	vnet, src, dst int
	m              msg
}

var _ coherence.Protocol = (*Protocol)(nil)

// New constructs a directory protocol over topo, with one L2 of geometry
// cc per node. perturb, when non-nil, samples an extra delay for every
// message. It records into the kernel's probe.
func New(k *sim.Kernel, topo *topology.Topology, params timing.Params, cc cache.Config, run *stats.Run,
	perturb func() sim.Duration, opts Options) *Protocol {
	if topo.Nodes() > 64 {
		panic("directory: full bit vector limited to 64 nodes")
	}
	p := &Protocol{opts: opts}
	var ordered []int
	if opts.Variant == Opt {
		// DirOpt "uses point-to-point ordering on one virtual network to
		// avoid nacks".
		ordered = []int{vnetForward}
	}
	p.Init(k, topo, params, cc, run, p.receive, perturb, ordered...)
	p.sends = sim.NewBatch(k, p.runSend)
	p.retries = sim.NewBatch(k, p.runRetry)
	p.nodes = make([]node, topo.Nodes())
	rng := sim.NewRand(opts.RetrySeed)
	for i := range p.nodes {
		p.nodes[i] = node{p: p, id: i, cache: p.Cache(i), wb: make(map[coherence.Block]uint64), rng: rng.Split()}
	}
	return p
}

// Name implements coherence.Protocol.
func (p *Protocol) Name() string { return p.opts.Variant.String() }

// DirectoryState reports the home directory state for b (tests and
// tsnoop check's quiescence audit): the state, owner (or -1) and sharer
// count. A block never touched is unowned.
func (p *Protocol) DirectoryState(b coherence.Block) (string, int, int) {
	i, ok := p.Index.Lookup(b)
	if !ok {
		return "U", -1, 0
	}
	switch e := p.dir.At(i); e.state {
	case dirE:
		return "E", int(e.owner), 0
	case dirS:
		return "S", -1, bits.OnesCount64(e.sharers)
	}
	return "U", -1, 0
}

// Access implements coherence.Protocol.
func (p *Protocol) Access(nodeID int, op coherence.Op, block coherence.Block, done func(coherence.AccessResult)) {
	n := &p.nodes[nodeID]
	if n.mshr != nil {
		panic(fmt.Sprintf("%s: node %d access while miss outstanding", p.Name(), nodeID))
	}
	idx, hit := p.Begin(nodeID, op, block, done)
	if hit {
		return
	}
	txn := coherence.GetS
	if op == coherence.Store {
		txn = coherence.GetX
	}
	m := &n.mshrStore
	*m = mshr{block: block, idx: idx, op: op, txn: txn, issuedAt: p.K.Now(), done: done}
	n.mshr = m
	n.sendRequest()
}

// send transmits a protocol message, charging the right traffic class.
func (p *Protocol) send(vnet, src, dst int, m msg) {
	class, bytes := p.classify(m)
	p.Fabric.Send(vnet, src, dst, class, bytes, m)
}

// sendAt sends a message at its ready time, which is later than now.
func (p *Protocol) sendAt(at sim.Time, vnet, src, dst int, m msg) {
	p.sends.Add(at-p.K.Now(), pendingSend{vnet: vnet, src: src, dst: dst, m: m})
}

// runSend puts a ready message on the wire.
func (p *Protocol) runSend(s *pendingSend) { p.send(s.vnet, s.src, s.dst, s.m) }

// classify maps messages to Figure 4's traffic classes: Data for
// block-carrying messages, Nack for nacks, Request for GETS/GETX, and
// Misc. for "forwarding, invalidations, and acknowledgments".
func (p *Protocol) classify(m msg) (stats.Class, int) {
	switch m.kind {
	case mReq:
		return stats.ClassRequest, timing.CtrlBytes
	case mNack:
		return stats.ClassNack, timing.CtrlBytes
	case mData, mWB:
		return stats.ClassData, p.DataBytes
	case mRevision:
		if m.txn == coherence.GetS {
			// The sharing writeback carries the block to memory.
			return stats.ClassData, p.DataBytes
		}
		return stats.ClassMisc, timing.CtrlBytes
	default:
		return stats.ClassMisc, timing.CtrlBytes
	}
}

func (n *node) sendRequest() {
	m := n.mshr
	home := coherence.HomeOf(m.block, n.p.Topo.Nodes())
	n.p.send(vnetRequest, n.id, home, msg{kind: mReq, txn: m.txn, idx: m.idx, block: m.block, requester: int16(n.id)})
}

// receive dispatches a message delivered to node nm.Dst.
func (p *Protocol) receive(nm network.Message[msg]) {
	n := &p.nodes[nm.Dst]
	switch m := nm.Payload; m.kind {
	case mReq:
		n.homeRequest(m)
	case mNack:
		n.reqNack(m)
	case mData:
		n.reqData(m)
	case mFwd:
		n.ownerFwd(m)
	case mInval:
		n.sharerInval(m)
	case mInvAck:
		n.reqInvAck(m)
	case mRevision:
		n.homeRevision(m)
	case mWB:
		n.homeWB(m)
	case mWBAck:
		n.ownerWBAck(m)
	default:
		panic("directory: unknown message kind")
	}
}

// homeRequest processes a GETS/GETX at the home directory.
func (n *node) homeRequest(m msg) {
	e := n.p.dir.At(m.idx)
	if e.busy {
		if n.p.opts.Variant == Classic {
			n.p.send(vnetResponse, n.id, int(m.requester), msg{kind: mNack, block: m.block, txn: m.txn})
			return
		}
		e.queue = append(e.queue, m)
		return
	}
	n.serveRequest(e, m)
}

// serveRequest handles a request against a non-busy entry. The directory
// access costs Dmem before any response or forward leaves the home.
func (n *node) serveRequest(e *dirEntry, m msg) {
	ready := n.p.K.Now() + n.p.Params.Dmem
	switch m.txn {
	case coherence.GetS:
		switch e.state {
		case dirU, dirS:
			e.state = dirS
			e.sharers |= 1 << uint(m.requester)
			n.p.sendAt(ready, vnetResponse, n.id, int(m.requester), msg{
				kind: mData, txn: m.txn, block: m.block,
				version: e.version, supplier: stats.MissFromMemory,
			})
		case dirE:
			e.busy = true
			e.busyTxn = coherence.GetS
			e.busyReq = m.requester
			n.p.sendAt(ready, vnetForward, n.id, int(e.owner), msg{
				kind: mFwd, txn: coherence.GetS, idx: m.idx, block: m.block, requester: m.requester,
			})
		}
	case coherence.GetX:
		switch e.state {
		case dirU:
			e.state = dirE
			e.owner = m.requester
			n.p.sendAt(ready, vnetResponse, n.id, int(m.requester), msg{
				kind: mData, txn: m.txn, block: m.block,
				version: e.version, supplier: stats.MissFromMemory,
			})
		case dirS:
			var acks int32
			for s := e.sharers; s != 0; s &= s - 1 {
				sh := bits.TrailingZeros64(s)
				if sh == int(m.requester) {
					continue
				}
				acks++
				// The invalidation carries the version it is killing so a
				// racing fill can tell whether it is the victim (version
				// <= e.version) or a newer grant that must survive.
				n.p.sendAt(ready, vnetForward, n.id, sh, msg{
					kind: mInval, block: m.block, requester: m.requester, version: e.version,
				})
			}
			if n.p.opts.Variant == Opt {
				// GS320-style: ordered invalidation delivery removes the
				// need for acknowledgements.
				acks = 0
			}
			e.state = dirE
			e.owner = m.requester
			e.sharers = 0
			n.p.sendAt(ready, vnetResponse, n.id, int(m.requester), msg{
				kind: mData, txn: m.txn, block: m.block,
				version: e.version, ackCount: acks, supplier: stats.MissFromMemory,
			})
		case dirE:
			e.busy = true
			e.busyTxn = coherence.GetX
			e.busyReq = m.requester
			n.p.sendAt(ready, vnetForward, n.id, int(e.owner), msg{
				kind: mFwd, txn: coherence.GetX, idx: m.idx, block: m.block, requester: m.requester,
			})
		}
	default:
		panic("directory: bad request kind")
	}
}

// reqNack handles a NACK: retry after backoff with jitter.
func (n *node) reqNack(m msg) {
	if n.mshr == nil || n.mshr.block != m.block {
		return // stale nack for an already-satisfied retry
	}
	n.p.Run.Retries++
	back := retryBackoff + n.rng.Duration(retryBackoff)
	n.p.retries.Add(back, retry{node: int32(n.id), block: m.block})
}

// runRetry ends a NACK backoff by re-sending the node's request, unless
// its miss was satisfied or replaced in the meantime.
func (p *Protocol) runRetry(r *retry) {
	if pr := p.Probe; pr != nil {
		pr.Event(obs.EvRetry)
	}
	if n := &p.nodes[r.node]; n.mshr != nil && n.mshr.block == r.block {
		n.sendRequest()
	}
}

// reqData handles the data response for this node's outstanding miss.
func (n *node) reqData(m msg) {
	ms := n.mshr
	if ms == nil || ms.block != m.block {
		panic(fmt.Sprintf("%s: node %d data for unexpected block %x", n.p.Name(), n.id, m.block))
	}
	ms.dataArrived = true
	ms.version = m.version
	ms.supplier = m.supplier
	ms.acksNeeded = int(m.ackCount)
	ms.haveAckInfo = true
	n.maybeComplete()
}

func (n *node) reqInvAck(m msg) {
	ms := n.mshr
	if ms == nil || ms.block != m.block {
		// The ack can outrun the protocol: count it only if it matches an
		// outstanding miss; otherwise it is stale (should not occur).
		panic(fmt.Sprintf("%s: node %d stray invalidation ack", n.p.Name(), n.id))
	}
	ms.acksSeen++
	n.maybeComplete()
}

func (n *node) maybeComplete() {
	ms := n.mshr
	if ms == nil || !ms.dataArrived || !ms.haveAckInfo || ms.acksSeen < ms.acksNeeded {
		return
	}
	n.complete()
}

func (n *node) complete() {
	ms := n.mshr
	n.mshr = nil
	version := ms.version
	if ms.txn == coherence.GetS {
		// Skip the install when an invalidation that raced this fill was
		// killing this very grant (fill version not newer than the
		// version the invalidation targeted).
		if !ms.sawInval || version > ms.invalVersion {
			n.insertLine(ms.block, cache.Shared, version)
		}
	} else {
		if ms.op == coherence.Store {
			version = n.p.Oracle().WriteVersion(ms.idx)
		}
		n.insertLine(ms.block, cache.Modified, version)
	}
	// Take the deferred interventions out first: done may issue the next
	// access, which reuses the MSHR. With no ordering point or address
	// broadcast, the miss has no lifecycle phases beyond its total (and
	// the data-fabric flights).
	deferred := ms.deferred
	n.p.Complete(n.id, ms.block, ms.supplier, ms.issuedAt, version, ms.done, nil)

	// Serve interventions that were waiting for this fill.
	for _, f := range deferred {
		n.ownerFwd(f)
	}
}

// insertLine fills a block, evicting as needed. Modified victims write
// back to their home and stay in the writeback buffer until acknowledged,
// so in-flight interventions can still be served.
func (n *node) insertLine(b coherence.Block, s cache.State, version uint64) {
	victim, evicted := n.cache.Insert(b, s, version)
	if !evicted || victim.State != cache.Modified {
		return
	}
	if _, dup := n.wb[victim.Block]; dup {
		panic(fmt.Sprintf("%s: node %d duplicate writeback for %x", n.p.Name(), n.id, victim.Block))
	}
	n.wb[victim.Block] = victim.Version
	home := coherence.HomeOf(victim.Block, n.p.Topo.Nodes())
	n.p.send(vnetResponse, n.id, home, msg{
		kind: mWB, idx: n.p.VictimIndex(n.id, victim.Block), block: victim.Block, requester: int16(n.id), version: victim.Version,
	})
}

// ownerFwd serves an intervention at the (supposed) owner.
func (n *node) ownerFwd(m msg) {
	state, version := n.cache.Peek(m.block)
	ready := n.p.K.Now() + n.p.Params.Dcache
	home := coherence.HomeOf(m.block, n.p.Topo.Nodes())
	wb, inWB := n.wb[m.block]
	switch {
	case state == cache.Modified:
		n.p.sendAt(ready, vnetResponse, n.id, int(m.requester), msg{
			kind: mData, txn: m.txn, block: m.block, version: version, supplier: stats.MissCacheToCache,
		})
		if m.txn == coherence.GetS {
			n.cache.SetState(m.block, cache.Shared)
			n.p.sendAt(ready, vnetResponse, n.id, home, msg{
				kind: mRevision, txn: coherence.GetS, idx: m.idx, block: m.block, version: version, keepCopy: true,
			})
		} else {
			n.cache.SetState(m.block, cache.Invalid)
			n.p.sendAt(ready, vnetResponse, n.id, home, msg{
				kind: mRevision, txn: coherence.GetX, idx: m.idx, block: m.block, version: version,
			})
		}
	case inWB:
		// Evicted but not yet acknowledged: supply from the writeback
		// buffer; the home will squash the writeback when it completes
		// this episode.
		n.p.sendAt(ready, vnetResponse, n.id, int(m.requester), msg{
			kind: mData, txn: m.txn, block: m.block, version: wb, supplier: stats.MissCacheToCache,
		})
		n.p.sendAt(ready, vnetResponse, n.id, home, msg{
			kind: mRevision, txn: m.txn, idx: m.idx, block: m.block, version: wb, keepCopy: false,
		})
	case n.mshr != nil && n.mshr.block == m.block && n.mshr.txn == coherence.GetX:
		// The home granted us ownership but our fill is still in flight.
		n.mshr.deferred = append(n.mshr.deferred, m)
	default:
		panic(fmt.Sprintf("%s: node %d intervention for block %x in state %v without data",
			n.p.Name(), n.id, m.block, state))
	}
}

// sharerInval invalidates a shared copy. A Modified copy (a newer grant)
// is never downgraded by a stale invalidation; a fill in flight records
// the invalidation's version so completion can discard the copy when the
// invalidation targeted it.
func (n *node) sharerInval(m msg) {
	if s, v := n.cache.Peek(m.block); s == cache.Shared && v <= m.version {
		n.cache.SetState(m.block, cache.Invalid)
	}
	if ms := n.mshr; ms != nil && ms.block == m.block && ms.txn == coherence.GetS {
		ms.sawInval = true
		if m.version > ms.invalVersion {
			ms.invalVersion = m.version
		}
	}
	if n.p.opts.Variant == Classic {
		n.p.send(vnetResponse, n.id, int(m.requester), msg{kind: mInvAck, block: m.block})
	}
}

// homeRevision completes a busy intervention episode at the home.
func (n *node) homeRevision(m msg) {
	e := n.p.dir.At(m.idx)
	if !e.busy {
		panic(fmt.Sprintf("%s: revision for idle block %x", n.p.Name(), m.block))
	}
	oldOwner := e.owner
	e.version = max(e.version, m.version)
	if e.busyTxn == coherence.GetS {
		e.state = dirS
		e.sharers = 1 << uint(e.busyReq)
		if m.keepCopy {
			e.sharers |= 1 << uint(oldOwner)
		}
	} else {
		e.state = dirE
		e.owner = e.busyReq
	}
	e.busy = false

	// Writebacks held during the episode resolve against the new state:
	// the old owner's is stale (its intervention was served from the
	// writeback buffer); the incoming owner's, if its eviction outran the
	// revision, applies normally.
	held := e.heldWB
	e.heldWB = nil
	for _, wb := range held {
		n.applyWB(e, wb)
	}

	// DirOpt: serve the next queued request.
	n.drainQueue(e)
}

func (n *node) drainQueue(e *dirEntry) {
	for !e.busy && len(e.queue) > 0 {
		next := e.queue[0]
		e.queue = e.queue[1:]
		n.serveRequest(e, next)
	}
}

// homeWB processes a writeback at the home.
func (n *node) homeWB(m msg) {
	e := n.p.dir.At(m.idx)
	if e.busy {
		// An intervention episode is in flight; hold the writeback until
		// it resolves.
		e.heldWB = append(e.heldWB, m)
		return
	}
	n.applyWB(e, m)
	n.drainQueue(e)
}

// applyWB resolves one writeback against a non-busy entry. A stale
// writeback, whose ownership already moved on, is acknowledged too, so
// the writer can free its buffer; its data was already supplied through
// the intervention path.
func (n *node) applyWB(e *dirEntry, m msg) {
	if e.state == dirE && e.owner == m.requester {
		e.version = max(e.version, m.version)
		e.state = dirU
	}
	n.p.send(vnetForward, n.id, int(m.requester), msg{kind: mWBAck, block: m.block})
}

// ownerWBAck frees the writeback buffer entry.
func (n *node) ownerWBAck(m msg) {
	if _, ok := n.wb[m.block]; !ok {
		panic(fmt.Sprintf("%s: node %d writeback ack without entry", n.p.Name(), n.id))
	}
	delete(n.wb, m.block)
}
