package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"tsnoop/internal/cache"
	"tsnoop/internal/coherence"
	"tsnoop/internal/service"
	"tsnoop/internal/sim"
	"tsnoop/internal/spec"
	"tsnoop/internal/stats"
	"tsnoop/internal/topology"
	"tsnoop/internal/tsnet"
	"tsnoop/internal/workload"
)

// perLayer are the traced run's metrics: CPU shares by layer from the
// profile, then counts and call times measured from outside each layer,
// fed with the workload's own specs and result bodies. BENCHMARK.json
// lists the same names and units.
var perLayer = append(cpuMetricDefs(),
	metricDef{"sim.events", "count"},
	metricDef{"sim.events_token", "count"},
	metricDef{"sim.events_link_txn", "count"},
	metricDef{"sim.events_handoff", "count"},
	metricDef{"sim.events_data", "count"},
	metricDef{"sim.heap_peak", "count"},
	metricDef{"sim.kernel_event_ns", "ns"},
	metricDef{"sim.accesses_per_s", "1/s"},
	metricDef{"tsnet.token_rounds", "count"},
	metricDef{"tsnet.link_txn_transits", "count"},
	metricDef{"tsnet.broadcast_us", "us"},
	metricDef{"protocol.retry_ratio", "ratio"},
	metricDef{"cache.access_ns", "ns"},
	metricDef{"cache.l2_hit_ratio", "ratio"},
	metricDef{"workload.next_ns", "ns"},
	metricDef{"system.build_ms", "ms"},
	metricDef{"system.build_share", "ratio"},
	metricDef{"parallel.busy_frac", "ratio"},
	metricDef{"spec.from_json_us", "us"},
	metricDef{"spec.canonical_us", "us"},
	metricDef{"stats.decode_us", "us"},
	metricDef{"store.get_lru_us", "us"},
	metricDef{"store.get_disk_us", "us"},
	metricDef{"store.put_ms", "ms"},
	metricDef{"store.hit_ratio", "ratio"},
	metricDef{"service.do_local_hit_us", "us"},
	metricDef{"service.do_hit_us", "us"},
	metricDef{"http.hit_us", "us"},
	metricDef{"http.overhead_us", "us"},
	metricDef{"cluster.forward_hit_us", "us"},
	metricDef{"cluster.forwards", "1/op"},
	metricDef{"cluster.forward_errors", "1/op"},
	metricDef{"cluster.replicated", "1/op"},
	metricDef{"runtime.gc_per_op", "1/op"},
	metricDef{"cpu_ms_per_op", "ms"},
	metricDef{"latency_p50_ms", "ms"},
	metricDef{"latency_p99_ms", "ms"},
	metricDef{"samples", "count"},
	metricDef{"trace_overhead_frac", "ratio"},
)

func cpuMetricDefs() []metricDef {
	defs := make([]metricDef, len(cpuLayers))
	for i, l := range cpuLayers {
		defs[i] = metricDef{"cpu." + l, "%"}
	}
	return defs
}

// probeTID is the span lane the layer probes record on.
const probeTID = 1000

// rung is one step of the service read path's latency ladder. A rung's
// self time is its median minus the medians of the calls it makes.
type rung struct {
	Call     string  `json:"call"`
	MedianUS float64 `json:"median_us"`
	SelfUS   float64 `json:"self_us"`
}

// prober times calls into each layer's public functions and collects
// the per-layer values.
type prober struct {
	tr   *tracer
	vals map[string]float64
}

// calls runs call(i) for i in [0, n), rounds times over, recording each
// call as a span, and returns the median call time. round, when not
// nil, runs untimed before each round.
func (p *prober) calls(name string, n, rounds int, round func() error, call func(i int) error) (time.Duration, error) {
	d := make([]float64, 0, n*rounds)
	for range rounds {
		if round != nil {
			if err := round(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		for i := range n {
			sp := p.tr.begin(probeTID)
			start := time.Now()
			err := call(i)
			d = append(d, float64(time.Since(start)))
			if err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			sp.end(name)
		}
	}
	return time.Duration(median(d)), nil
}

// spread picks up to n inputs evenly across in.
func spread(in []input, n int) []input {
	if len(in) <= n {
		return in
	}
	out := make([]input, n)
	for i := range out {
		out[i] = in[i*len(in)/n]
	}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// simLayers runs a sample of the workload's specs, one seed each, with
// the telemetry probe attached, and reports the kernel, tsnet, protocol
// and cache counts per simulation. It also times system construction
// against whole runs, and the kernel's dispatch at the sampled heap
// depth and schedule distance.
func (p *prober) simLayers(in []input) error {
	specs := spread(in, 32)
	var events, token, txn, handoff, data, rounds, transits, retries, misses, l2, memops int64
	var heapPeak, delaySum, delayN int64
	for _, x := range specs {
		s := x.spec
		s.Seeds, s.Metrics = 1, true
		run, err := s.Run()
		if err != nil {
			return err
		}
		m := run.Metrics
		events += m.Kernel.TypedDispatches + m.Kernel.ClosureDispatches
		token += m.Kernel.Events.LinkToken
		txn += m.Kernel.Events.LinkTxn
		handoff += m.Kernel.Events.OrderedHandoff
		data += m.Kernel.Events.DataMsg
		heapPeak = max(heapPeak, m.Kernel.HeapPeak)
		delaySum += m.Kernel.ScheduleDelayPS.Sum
		delayN += m.Kernel.ScheduleDelayPS.Count
		rounds += m.Network.TokenRounds
		transits += m.Network.LinkTxnTransits
		retries += run.Retries
		misses += run.TotalMisses()
		l2 += run.L2Hits
		memops += run.MemOps
	}
	n := float64(len(specs))
	p.vals["sim.events"] = float64(events) / n
	p.vals["sim.events_token"] = float64(token) / n
	p.vals["sim.events_link_txn"] = float64(txn) / n
	p.vals["sim.events_handoff"] = float64(handoff) / n
	p.vals["sim.events_data"] = float64(data) / n
	p.vals["sim.heap_peak"] = float64(heapPeak)
	p.vals["tsnet.token_rounds"] = float64(rounds) / n
	p.vals["tsnet.link_txn_transits"] = float64(transits) / n
	p.vals["protocol.retry_ratio"] = ratio(retries, misses)
	p.vals["cache.l2_hit_ratio"] = ratio(l2, memops)
	p.vals["sim.kernel_event_ns"] = kernelEventNS(int(heapPeak), max(delaySum/max(delayN, 1), 1))

	var builds []float64
	var buildSum, fullSum time.Duration
	for _, x := range specs[:min(len(specs), 4)] {
		s := x.spec
		s.Seeds = 1
		start := time.Now()
		if _, err := s.Run(); err != nil {
			return err
		}
		fullSum += time.Since(start)
		s.Warmup, s.Quota = -1, 1
		start = time.Now()
		if _, err := s.Run(); err != nil {
			return err
		}
		build := time.Since(start)
		buildSum += build
		builds = append(builds, ms(build))
	}
	p.vals["system.build_ms"] = median(builds)
	p.vals["system.build_share"] = float64(buildSum) / float64(fullSum)
	return nil
}

// kernelEventNS times one AtCall plus Step on a kernel holding depth
// pending events, with schedule distances drawn around meanPS.
func kernelEventNS(depth int, meanPS int64) float64 {
	rng := rand.New(rand.NewPCG(1, 1))
	delays := make([]sim.Duration, 4096)
	for i := range delays {
		delays[i] = sim.Duration(1 + rng.Int64N(2*meanPS))
	}
	noop := func(any, any, int64) {}
	k := sim.NewKernel()
	for i := range max(depth, 1) {
		k.AtCall(delays[i%len(delays)], noop, nil, nil, 0)
	}
	const n = 200_000
	var per []float64
	for range 5 {
		start := time.Now()
		for i := range n {
			k.AtCall(k.Now()+delays[i%len(delays)], noop, nil, nil, 0)
			k.Step()
		}
		per = append(per, float64(time.Since(start))/n)
	}
	return median(per)
}

// broadcastUS times one ordered broadcast on the 16-node butterfly's
// address network, from Inject until all 16 endpoints processed it.
func broadcastUS() (float64, error) {
	topo, err := topology.Butterfly(4)
	if err != nil {
		return 0, err
	}
	k := sim.NewKernel()
	run := &stats.Run{}
	cfg := tsnet.DefaultConfig()
	cfg.Verify = false
	nw := tsnet.New(k, topo, cfg, &run.Traffic, run)
	delivered := 0
	for ep := range 16 {
		nw.Register(ep, func(int, uint64, any, sim.Time) { delivered++ }, nil)
	}
	nw.Start()
	k.RunUntil(100 * sim.Nanosecond)
	const n = 2000
	var per []float64
	for range 5 {
		start := time.Now()
		for i := range n {
			want := delivered + 16
			nw.Inject(i%16, nil)
			k.RunWhile(func() bool { return delivered < want })
		}
		per = append(per, us(time.Since(start))/n)
	}
	return median(per), nil
}

// streamLayers replays one run's worth of s's accesses: drawing them
// from a fresh generator (workload.next_ns), then through one L2 per
// processor (cache.access_ns), a miss inserting the block.
func (p *prober) streamLayers(s spec.Spec) error {
	cfg, _, err := s.Config()
	if err != nil {
		return err
	}
	n := s.Nodes * (cfg.WarmupPerCPU + cfg.MeasurePerCPU)
	var acc []workload.Access
	var next, access []float64
	for range 3 {
		_, gen, err := s.Config()
		if err != nil {
			return err
		}
		root := sim.NewRand(s.Seed)
		rngs := make([]*sim.Rand, s.Nodes)
		for i := range rngs {
			rngs[i] = root.Split()
		}
		acc = acc[:0]
		start := time.Now()
		for i := range n {
			acc = append(acc, gen.Next(i%s.Nodes, rngs[i%s.Nodes]))
		}
		next = append(next, float64(time.Since(start))/float64(n))
	}
	for range 3 {
		caches := make([]*cache.Cache, s.Nodes)
		for i := range caches {
			if caches[i], err = cache.New(cfg.Cache); err != nil {
				return err
			}
		}
		start := time.Now()
		for i, a := range acc {
			c := caches[i%s.Nodes]
			st, _ := c.Lookup(a.Block)
			switch {
			case a.Op == coherence.Store && st != cache.Modified:
				c.Insert(a.Block, cache.Modified, 0)
			case st == cache.Invalid:
				c.Insert(a.Block, cache.Shared, 0)
			}
		}
		access = append(access, float64(time.Since(start))/float64(n))
	}
	p.vals["workload.next_ns"] = median(next)
	p.vals["cache.access_ns"] = median(access)
	return nil
}

// ladder times the service read path one layer at a time, top down:
// an HTTP hit, a clustered Service.Do hit, a single-node Service.Do
// hit, a Store.Get LRU hit, and decoding the stored stats.Run, plus the
// spec, store-write, disk-read and forward calls beside them. The keys
// are the workload's own, stored into a fresh 2-node cluster.
func (p *prober) ladder(in []input) ([]rung, error) {
	keys := spread(in, 64)
	n := len(keys)
	rounds := func(samples int) int { return (samples + n - 1) / n }
	jsons := make([][]byte, n)
	canon := make([]string, n)
	for i, k := range keys {
		jsons[i], canon[i] = k.spec.JSON(), k.spec.Canonical()
	}
	fromJSON, err := p.calls("spec.FromJSON", n, rounds(512), nil, func(i int) error {
		_, err := spec.FromJSON(jsons[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	canonical, err := p.calls("Spec.Canonical", n, rounds(512), nil, func(i int) error {
		keys[i].spec.Canonical()
		return nil
	})
	if err != nil {
		return nil, err
	}
	decode, err := p.calls("stats.Run decode", n, rounds(512), nil, func(i int) error {
		return json.Unmarshal(keys[i].body, new(stats.Run))
	})
	if err != nil {
		return nil, err
	}

	f, err := newFleet(2)
	if err != nil {
		return nil, err
	}
	defer f.close()
	owner := make([]int, n)
	for i, k := range keys {
		owner[i] = f.owner(k.spec)
	}
	stores := make([]*service.Store, 2)
	open := func() (err error) {
		for j := range stores {
			if stores[j], err = service.OpenStore(f.dir(j), 0); err != nil {
				return err
			}
		}
		return nil
	}
	if err := open(); err != nil {
		return nil, err
	}
	put, err := p.calls("Store.Put", n, rounds(32), nil, func(i int) error {
		return stores[owner[i]].Put(canon[i], keys[i].body)
	})
	if err != nil {
		return nil, err
	}
	get := func(i int) error {
		data, ok, err := stores[owner[i]].Get(canon[i])
		if err == nil && (!ok || !bytes.Equal(data, keys[i].body)) {
			err = errors.New("stored body differs")
		}
		return err
	}
	disk, err := p.calls("Store.Get disk", n, rounds(256), open, get)
	if err != nil {
		return nil, err
	}
	lru, err := p.calls("Store.Get LRU", n, rounds(512), nil, get)
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	locals := make([]*service.Service, 2)
	for j := range locals {
		if locals[j], err = service.New(service.Config{Dir: f.dir(j)}); err != nil {
			return nil, err
		}
	}
	hit := func(sv *service.Service, i int) error {
		res, err := sv.Do(ctx, keys[i].spec)
		if err == nil && (!res.Cached || !bytes.Equal(res.Data, keys[i].body)) {
			err = errors.New("answer is not a hit with the stored body")
		}
		return err
	}
	warm := func(do func(i int) error) func() error {
		return func() error {
			for i := range n {
				if err := do(i); err != nil {
					return err
				}
			}
			return nil
		}
	}
	localDo := func(i int) error { return hit(locals[owner[i]], i) }
	local, err := p.calls("Service.Do local", n, rounds(512), warm(localDo), localDo)
	if err != nil {
		return nil, err
	}
	clusterDo := func(i int) error { return hit(f.nodes[owner[i]].sv, i) }
	clustered, err := p.calls("Service.Do clustered", n, rounds(512), warm(clusterDo), clusterDo)
	if err != nil {
		return nil, err
	}
	httpHit, err := p.calls("POST /v1/runs", n, rounds(512), nil, func(i int) error {
		body, disp, err := f.post(owner[i], jsons[i], spanCtx{})
		if err == nil && (disp != service.CacheHit || !bytes.Equal(body, keys[i].body)) {
			err = errors.New("answer is not a hit with the stored body")
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	forward, err := p.calls("Cluster.Forward", n, rounds(256), nil, func(i int) error {
		fwd, err := f.nodes[1-owner[i]].cl.Forward(ctx, f.addrs[owner[i]], jsons[i], "")
		if err == nil && (fwd.Disposition != service.CacheHit || !bytes.Equal(fwd.Data, keys[i].body)) {
			err = errors.New("forward is not a hit with the stored body")
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	p.vals["spec.from_json_us"] = us(fromJSON)
	p.vals["spec.canonical_us"] = us(canonical)
	p.vals["stats.decode_us"] = us(decode)
	p.vals["store.put_ms"] = ms(put)
	p.vals["store.get_disk_us"] = us(disk)
	p.vals["store.get_lru_us"] = us(lru)
	p.vals["service.do_local_hit_us"] = us(local)
	p.vals["service.do_hit_us"] = us(clustered)
	p.vals["http.hit_us"] = us(httpHit)
	p.vals["http.overhead_us"] = us(httpHit - clustered)
	p.vals["cluster.forward_hit_us"] = us(forward)

	// A single-node Service.Do hit makes two calls: Store.Get, then the
	// decode of the stored bytes.
	return []rung{
		{"POST /v1/runs", us(httpHit), us(httpHit - clustered)},
		{"Service.Do clustered", us(clustered), us(clustered - local)},
		{"Service.Do single node", us(local), us(local - lru - decode)},
		{"Store.Get LRU", us(lru), us(lru)},
		{"stats.Run decode", us(decode), us(decode)},
	}, nil
}

// probeLayers runs every layer probe over inst's inputs.
func probeLayers(inst instance, tr *tracer) (map[string]float64, []rung, error) {
	in := inst.inputs()
	if len(in) == 0 {
		return nil, nil, errors.New("the workload kept no inputs to probe")
	}
	p := &prober{tr: tr, vals: map[string]float64{}}
	if err := p.simLayers(in); err != nil {
		return nil, nil, fmt.Errorf("sim layers: %w", err)
	}
	if err := p.streamLayers(in[0].spec); err != nil {
		return nil, nil, fmt.Errorf("cache and workload: %w", err)
	}
	var err error
	if p.vals["tsnet.broadcast_us"], err = broadcastUS(); err != nil {
		return nil, nil, fmt.Errorf("tsnet: %w", err)
	}
	ladder, err := p.ladder(in)
	if err != nil {
		return nil, nil, fmt.Errorf("service ladder: %w", err)
	}
	return p.vals, ladder, nil
}
