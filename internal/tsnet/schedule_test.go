package tsnet

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"tsnoop/internal/obs"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/topology"
)

// start starts n replaying its token schedule, or, at token level,
// simulating every token as contention mode and the recorder do: the
// reference the phase replay must match.
func start[P any](n *Network[P], tokenLevel bool) {
	if tokenLevel {
		n.startTokens()
	} else {
		n.Start()
	}
}

// replayRun is one network's record of a replayRun script.
type replayRun struct {
	order, gts, counts string // processing log, GT and token-count samples
	run, net           []byte // stats.Run and the probe's network metrics, as JSON
}

// runScript drives one network, phase replay or token level, through a
// seeded script of broadcasts, multicasts and GT samples, half of each
// on the 15 ns token beat, and logs every ordered processing.
func runScript(t *testing.T, topo *topology.Topology, cfg Config, tokenLevel bool) replayRun {
	t.Helper()
	k := sim.NewKernel()
	probe := obs.NewProbe()
	k.SetProbe(probe)
	run := &stats.Run{}
	net := New(k, topo, cfg, &run.Traffic, run)
	for ep := 0; ep < topo.Nodes(); ep++ {
		net.Register(ep, func(int, uint64, any, sim.Time) {}, nil)
	}
	var order, gts, counts strings.Builder
	net.TestHook = func(ep, src int, seq uint64, gt, ot uint64) {
		fmt.Fprintln(&order, k.Now(), ep, src, seq, gt, ot)
	}
	start(net, tokenLevel)
	rng := sim.NewRand(uint64(topo.Nodes()*100 + cfg.TokensPerPort*10 + cfg.InitialSlack))
	at := func() sim.Time {
		if rng.Bool(0.5) {
			return sim.Time(rng.Int63n(300)) * cfg.Params.Dswitch
		}
		return sim.Time(rng.Int63n(int64(300 * cfg.Params.Dswitch)))
	}
	ins := make([]injection, 60)
	for i := range ins {
		ins[i] = injection{net: net, src: rng.Intn(topo.Nodes())}
		if rng.Bool(0.4) {
			ins[i].mask = rng.Uint64() & (^uint64(0) >> (64 - topo.Nodes()))
			if ins[i].mask == 0 {
				ins[i].mask = 1
			}
		}
		k.AtCall(at(), injectEvent, &ins[i], nil, 0)
	}
	sample := func(any, any, int64) {
		fmt.Fprint(&gts, k.Now())
		for ep := 0; ep < topo.Nodes(); ep++ {
			fmt.Fprint(&gts, " ", net.GT(ep))
		}
		fmt.Fprintln(&gts)
		// The counts an entering transaction's case-1 slack reads.
		fmt.Fprintln(&counts, k.Now(), net.counts)
	}
	for i := 0; i < 40; i++ {
		k.AtCall(at(), sample, nil, nil, 0)
	}
	end := 400 * cfg.Params.Dswitch
	k.RunUntil(end)
	for i := range ins {
		if !ins[i].done {
			t.Fatalf("injection %d never ran", i)
		}
	}
	r := replayRun{order: order.String(), gts: gts.String(), counts: counts.String()}
	var err error
	if r.run, err = json.Marshal(run); err != nil {
		t.Fatal(err)
	}
	if r.net, err = json.Marshal(probe.Finalize(int64(end)).Network); err != nil {
		t.Fatal(err)
	}
	return r
}

// firstDiff returns the first line where a and b differ.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			if i >= len(lb) {
				return fmt.Sprintf("line %d: %q vs end", i, la[i])
			}
			return fmt.Sprintf("line %d: %q vs %q", i, la[i], lb[i])
		}
	}
	return fmt.Sprintf("line %d: end vs %q", len(la), lb[len(la)])
}

// Replaying the recorded token schedule must leave every ordered
// processing where token-level simulation puts it, to the picosecond,
// with the same GT and ordering time, every sampled GT and token count
// equal, and the run's statistics and network metrics byte-identical:
// on both fabrics at three sizes, with 1-3 tokens per port, slack 0-3
// and Verify on.
func TestPhaseReplayMatchesTokens(t *testing.T) {
	topos := []*topology.Topology{
		topology.MustButterfly(2), topology.MustButterfly(4), topology.MustButterfly(8),
		topology.MustTorus(2, 2), topology.MustTorus(4, 4), topology.MustTorus(8, 8),
	}
	for _, topo := range topos {
		for tokens := 1; tokens <= 3; tokens++ {
			for slack := 0; slack <= 3; slack++ {
				name := fmt.Sprintf("%s/k=%d/S=%d", topo.Name(), tokens, slack)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.TokensPerPort = tokens
					cfg.InitialSlack = slack
					got, want := runScript(t, topo, cfg, false), runScript(t, topo, cfg, true)
					if strings.Count(want.order, "\n") == 0 {
						t.Fatal("the script processed nothing")
					}
					if got.order != want.order {
						t.Errorf("processing logs differ at %s", firstDiff(got.order, want.order))
					}
					if got.gts != want.gts {
						t.Errorf("GT samples differ at %s", firstDiff(got.gts, want.gts))
					}
					if got.counts != want.counts {
						t.Errorf("token-count samples differ at %s", firstDiff(got.counts, want.counts))
					}
					if string(got.run) != string(want.run) {
						t.Errorf("stats.Run = %s, want %s", got.run, want.run)
					}
					if string(got.net) != string(want.net) {
						t.Errorf("network metrics = %s, want %s", got.net, want.net)
					}
				})
			}
		}
	}
}

// An idle uncontended network runs one hop item per token phase: one
// per 15 ns token beat on the butterfly and at most three on the torus,
// whose on-die endpoint links add work at the end of the beat. Token
// level, every switch propagation and endpoint echo was its own item.
// The kernel dispatches no more events than that, and the probe counts
// every token transit and propagation as token-level simulation does.
func TestPhaseReplayCost(t *testing.T) {
	for _, c := range []struct {
		topo      *topology.Topology
		perPeriod uint64
	}{
		{topology.MustButterfly(4), 1},
		{topology.MustTorus(4, 4), 3},
	} {
		const periods = 100
		measure := func(tokenLevel bool) (items, events uint64, net obs.NetworkMetrics) {
			k := sim.NewKernel()
			probe := obs.NewProbe()
			k.SetProbe(probe)
			run := &stats.Run{}
			n := New(k, c.topo, DefaultConfig(), &run.Traffic, run)
			n.hops = sim.NewBatch(k, func(h *hop[any]) {
				items++
				n.runHop(h)
			})
			for ep := 0; ep < c.topo.Nodes(); ep++ {
				n.Register(ep, func(int, uint64, any, sim.Time) {}, nil)
			}
			start(n, tokenLevel)
			dt := n.cfg.Params.Dswitch
			// Start well past the schedule's transient, on the beat.
			k.RunUntil(100*dt - 1)
			probe.Reset()
			items, events = 0, k.Executed()
			k.RunUntil(100*dt - 1 + periods*dt)
			return items, k.Executed() - events, probe.Finalize(int64(periods * dt)).Network
		}
		items, events, net := measure(false)
		tokItems, _, tokNet := measure(true)
		t.Logf("%s: %d phase items, %d events over %d beats; token level ran %d items",
			c.topo.Name(), items, events, periods, tokItems)
		if max := c.perPeriod * periods; items > max || events > max {
			t.Errorf("%s: %d items and %d events over %d beats, want at most %d each", c.topo.Name(), items, events, periods, max)
		}
		if net.LinkTokenTransits != tokNet.LinkTokenTransits || net.TokenRounds != tokNet.TokenRounds {
			t.Errorf("%s: %d token transits and %d rounds, token level %d and %d", c.topo.Name(),
				net.LinkTokenTransits, net.TokenRounds, tokNet.LinkTokenTransits, tokNet.TokenRounds)
		}
		if net.TokenRounds == 0 {
			t.Errorf("%s: no token rounds counted", c.topo.Name())
		}
		// Idle, every reorder-queue sample is a tick's, one per endpoint
		// per beat. Both networks share the tick code, so count them.
		want := int64(c.topo.Nodes() * periods)
		if got, tok := net.ReorderOccupancy.Count, tokNet.ReorderOccupancy.Count; got != want || tok != want {
			t.Errorf("%s: %d reorder samples, token level %d, want %d", c.topo.Name(), got, tok, want)
		}
	}
}

// A phase processes everything its ticks make due as one item, so an
// ordered handler that injects synchronously would run ahead of the
// rest of its instant's ticks: inject refuses it.
func TestInjectInsidePhasePanics(t *testing.T) {
	topo := topology.MustButterfly(2)
	k := sim.NewKernel()
	run := &stats.Run{}
	net := New(k, topo, DefaultConfig(), &run.Traffic, run)
	for ep := 0; ep < topo.Nodes(); ep++ {
		net.Register(ep, func(src int, _ uint64, _ any, _ sim.Time) { net.Inject(src, nil) }, nil)
	}
	net.Start()
	k.RunUntil(100 * sim.Nanosecond)
	net.Inject(0, nil)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "inside a token phase") {
			t.Fatalf("recovered %v, want the inside-a-phase panic", r)
		}
	}()
	k.RunUntil(sim.Microsecond)
}

// Networks of one shape share one recorded schedule, whichever of
// several goroutines builds first, and a shared schedule runs each
// network alike. Run under -race, this checks the schedule table's
// locking.
func TestScheduleSharedAcrossGoroutines(t *testing.T) {
	topos := []*topology.Topology{topology.MustButterfly(3), topology.MustTorus(3, 3)}
	scheds := make([]*schedule, 8)
	gts := make([]uint64, len(scheds))
	var wg sync.WaitGroup
	for i := range scheds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			topo := topos[i%len(topos)]
			k := sim.NewKernel()
			run := &stats.Run{}
			net := New(k, topo, DefaultConfig(), &run.Traffic, run)
			for ep := 0; ep < topo.Nodes(); ep++ {
				net.Register(ep, func(int, uint64, any, sim.Time) {}, nil)
			}
			net.Start()
			k.RunUntil(sim.Microsecond)
			scheds[i], gts[i] = net.sched, net.GT(topo.Nodes()-1)
		}()
	}
	wg.Wait()
	for i := range scheds {
		if j := i % len(topos); scheds[i] != scheds[j] || gts[i] != gts[j] {
			t.Errorf("network %d: schedule %p and GT %d, network %d: %p and %d", i, scheds[i], gts[i], j, scheds[j], gts[j])
		}
	}
}
