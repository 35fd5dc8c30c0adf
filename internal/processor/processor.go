// Package processor models the paper's processor assumption: a core plus
// level-one caches that would complete four billion instructions per
// second with a perfect memory system (250 ps/instruction), issuing
// blocking requests to the level-two cache (Section 4.2/4.3).
//
// The workload generator plays the role of Simics: it produces the L2
// reference stream (the L1 filter is folded into the generator's think
// times). The processor interleaves think instructions with blocking L2
// accesses until it has executed its quota of memory operations.
package processor

import (
	"tsnoop/internal/coherence"
	"tsnoop/internal/obs"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/timing"
	"tsnoop/internal/workload"
)

// Set is one machine's processors, built once; Start re-arms them for
// each phase. Every think period of every processor is an item of one
// batch naming the processor by its index, so think periods of
// different processors that end at one instant may share a kernel event,
// still in the order one event each would give.
type Set struct {
	k        *sim.Kernel
	proto    *coherence.Protocol // the caller's protocol slot, read at every issue
	gen      workload.Generator
	params   timing.Params
	run      *stats.Run
	onFinish func(id int)
	think    *sim.Batch[int32]
	procs    []Processor
	// waiting counts the accesses issued and not yet completed, and
	// completed those completed, over every phase.
	waiting   int
	completed int64

	// probe is the kernel's optional telemetry hook (nil = one branch
	// per access).
	probe *obs.Probe
}

// Processor drives one node's memory operations.
type Processor struct {
	set *Set
	id  int // node id and index in set.procs; the think batch's item
	rng *sim.Rand

	quota    int
	executed int

	// pending is the access the current think period ends by issuing,
	// doneFn its completion callback, bound once so the
	// think/issue/complete cycle allocates nothing, and issuedAt its
	// issue time, for its lifecycle span.
	pending  workload.Access
	doneFn   func(coherence.AccessResult)
	issuedAt sim.Time
}

// NewSet builds one processor per stream of rngs: processor i is node i
// and draws from rngs[i]. Processors issue through *proto and record
// their access spans into the kernel's probe. onFinish, when non-nil,
// is called with a processor's id when it completes its quota.
func NewSet(k *sim.Kernel, proto *coherence.Protocol, gen workload.Generator, params timing.Params,
	run *stats.Run, onFinish func(int), rngs []*sim.Rand) *Set {
	s := &Set{
		k: k, proto: proto, gen: gen, params: params, run: run,
		onFinish: onFinish, probe: k.Probe(), procs: make([]Processor, len(rngs)),
	}
	s.think = sim.NewBatch(k, s.issueAccess)
	for i := range s.procs {
		p := &s.procs[i]
		p.set, p.id, p.rng = s, i, rngs[i]
		p.doneFn = p.accessDone
	}
	return s
}

// Start begins a phase at the current simulated time: every processor
// executes quota more memory operations.
func (s *Set) Start(quota int) {
	for i := range s.procs {
		p := &s.procs[i]
		p.quota, p.executed = quota, 0
		p.step()
	}
}

// Progress reports the accesses still waiting for completion and the
// accesses completed so far.
func (s *Set) Progress() (waiting int, completed int64) { return s.waiting, s.completed }

func (p *Processor) step() {
	s := p.set
	if p.executed >= p.quota {
		if s.onFinish != nil {
			s.onFinish(p.id)
		}
		return
	}
	p.pending = s.gen.Next(p.id, p.rng)
	think := sim.Duration(p.pending.Think) * s.params.InstrTime
	s.run.Instructions += int64(p.pending.Think)
	s.think.Add(think, int32(p.id))
}

// issueAccess ends a think period: processor i issues its
// pending memory operation.
func (s *Set) issueAccess(i *int32) {
	p := &s.procs[*i]
	s.run.MemOps++
	s.waiting++
	p.issuedAt = s.k.Now()
	(*s.proto).Access(p.id, p.pending.Op, p.pending.Block, p.doneFn)
}

// accessDone is the completion callback for every access this processor
// issues (stored once in doneFn so issuing allocates no closure).
func (p *Processor) accessDone(r coherence.AccessResult) {
	s := p.set
	s.waiting--
	s.completed++
	if r.Hit {
		s.run.L2Hits++
	}
	if pr := s.probe; pr != nil {
		now := s.k.Now()
		pr.Span(obs.SpanAccess, int32(p.id), obs.LaneCPU, int32(p.id), 0,
			int64(p.issuedAt), int64(now-p.issuedAt))
	}
	p.executed++
	p.step()
}
