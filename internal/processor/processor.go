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

// Processor drives one node's memory operations.
type Processor struct {
	k      *sim.Kernel
	id     int
	proto  coherence.Protocol
	gen    workload.Generator
	params timing.Params
	rng    *sim.Rand
	run    *stats.Run

	quota    int
	executed int
	finished bool
	// FinishedAt is the simulated time the quota completed.
	FinishedAt sim.Time

	onFinish func(id int)

	// think ends each think period by issuing pending; doneFn is the
	// completion callback handed to the protocol. All three live on the
	// processor so the per-operation think/issue/complete cycle
	// allocates nothing. At most one think is pending, so no item joins
	// another and each think period is one kernel event.
	think   *sim.Batch[*Processor]
	pending workload.Access
	doneFn  func(coherence.AccessResult)

	// probe is the kernel's optional telemetry hook (nil = one branch
	// per access); issuedAt timestamps the in-flight access for its
	// lifecycle span.
	probe    *obs.Probe
	issuedAt sim.Time
}

// New creates a processor for node id executing quota memory operations,
// recording its access spans into the kernel's probe.
func New(k *sim.Kernel, id int, proto coherence.Protocol, gen workload.Generator,
	params timing.Params, rng *sim.Rand, run *stats.Run, quota int, onFinish func(int)) *Processor {
	p := &Processor{
		k: k, id: id, proto: proto, gen: gen,
		params: params, rng: rng, run: run,
		quota: quota, onFinish: onFinish,
		probe: k.Probe(),
	}
	p.think = sim.NewBatch(k, issueAccess)
	p.doneFn = p.accessDone
	return p
}

// Start begins execution at the current simulated time.
func (p *Processor) Start() { p.step() }

// Finished reports whether the quota is done.
func (p *Processor) Finished() bool { return p.finished }

// Executed returns completed memory operations.
func (p *Processor) Executed() int { return p.executed }

func (p *Processor) step() {
	if p.executed >= p.quota {
		p.finished = true
		p.FinishedAt = p.k.Now()
		if p.onFinish != nil {
			p.onFinish(p.id)
		}
		return
	}
	p.pending = p.gen.Next(p.id, p.rng)
	think := sim.Duration(p.pending.Think) * p.params.InstrTime
	p.run.Instructions += int64(p.pending.Think)
	p.think.Add(think, p)
}

// issueAccess ends a think period: the processor issues its pending
// memory operation.
func issueAccess(pp **Processor) {
	p := *pp
	p.run.MemOps++
	p.issuedAt = p.k.Now()
	p.proto.Access(p.id, p.pending.Op, p.pending.Block, p.doneFn)
}

// accessDone is the completion callback for every access this processor
// issues (stored once in doneFn so issuing allocates no closure).
func (p *Processor) accessDone(r coherence.AccessResult) {
	if r.Hit {
		p.run.L2Hits++
	}
	if pr := p.probe; pr != nil {
		now := p.k.Now()
		pr.Span(obs.SpanAccess, int32(p.id), obs.LaneCPU, int32(p.id), 0,
			int64(p.issuedAt), int64(now-p.issuedAt))
	}
	p.executed++
	p.step()
}
