package tsnet

import (
	"fmt"
	"testing"

	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/topology"
)

type procRec struct {
	src int
	seq uint64
}

// injection is one scheduled transaction from src: a broadcast when mask
// is 0, otherwise a multicast to mask. injectEvent fills in seq and done.
type injection struct {
	net  *Network[any]
	src  int
	mask uint64
	seq  uint64
	done bool
}

// injectEvent is the EventFn the tests schedule injections through; a0
// is the *injection.
func injectEvent(a0, _ any, _ int64) {
	in := a0.(*injection)
	if in.mask == 0 {
		in.seq = in.net.Inject(in.src, nil)
	} else {
		in.seq = in.net.InjectTo(in.src, in.mask, nil)
	}
	in.done = true
}

// buildNet wires a network where every endpoint logs its ordered stream.
func buildNet(t *testing.T, topo *topology.Topology, cfg Config) (*sim.Kernel, *Network[any], [][]procRec, *stats.Run) {
	t.Helper()
	k := sim.NewKernel()
	run := &stats.Run{}
	net := New(k, topo, cfg, &run.Traffic, run)
	logs := make([][]procRec, topo.Nodes())
	for ep := 0; ep < topo.Nodes(); ep++ {
		ep := ep
		net.Register(ep, func(src int, seq uint64, payload any, arrived sim.Time) {
			logs[ep] = append(logs[ep], procRec{src, seq})
		}, nil)
	}
	net.Start()
	return k, net, logs, run
}

func checkAgreement(t *testing.T, logs [][]procRec, wantLen int) {
	t.Helper()
	for ep := range logs {
		if len(logs[ep]) != wantLen {
			t.Fatalf("endpoint %d processed %d transactions, want %d", ep, len(logs[ep]), wantLen)
		}
		for i := range logs[ep] {
			if logs[ep][i] != logs[0][i] {
				t.Fatalf("order disagreement at position %d: ep%d saw %v, ep0 saw %v",
					i, ep, logs[ep][i], logs[0][i])
			}
		}
	}
}

func TestGTAdvancesSteadily(t *testing.T) {
	for _, topo := range []*topology.Topology{topology.MustButterfly(4), topology.MustTorus(4, 4)} {
		k, net, _, _ := buildNet(t, topo, DefaultConfig())
		k.RunUntil(1500 * sim.Nanosecond)
		// Tokens circulate every Dswitch = 15 ns: about 100 ticks in
		// 1500 ns (plus the initial tick).
		for ep := 0; ep < topo.Nodes(); ep++ {
			gt := net.GT(ep)
			if gt < 95 || gt > 105 {
				t.Errorf("%s ep%d GT = %d after 1500ns, want ~101", topo.Name(), ep, gt)
			}
		}
	}
}

func TestSingleBroadcastReachesAllInOrder(t *testing.T) {
	for _, topo := range []*topology.Topology{topology.MustButterfly(4), topology.MustTorus(4, 4)} {
		k, net, logs, _ := buildNet(t, topo, DefaultConfig())
		k.RunUntil(100 * sim.Nanosecond)
		net.Inject(3, "txn")
		k.RunUntil(400 * sim.Nanosecond)
		checkAgreement(t, logs, 1)
		if logs[0][0] != (procRec{3, 0}) {
			t.Fatalf("%s: processed %v", topo.Name(), logs[0][0])
		}
	}
}

func TestBroadcastTrafficMatchesPaper(t *testing.T) {
	// One broadcast charges 21 links on the butterfly, 15 on the torus,
	// 8 bytes each.
	cases := []struct {
		topo *topology.Topology
		want int64
	}{
		{topology.MustButterfly(4), 21 * 8},
		{topology.MustTorus(4, 4), 15 * 8},
	}
	for _, c := range cases {
		k, net, _, run := buildNet(t, c.topo, DefaultConfig())
		k.RunUntil(100 * sim.Nanosecond)
		net.Inject(0, nil)
		k.RunUntil(200 * sim.Nanosecond)
		if got := run.Traffic.LinkBytes(stats.ClassRequest); got != c.want {
			t.Errorf("%s broadcast bytes = %d, want %d", c.topo.Name(), got, c.want)
		}
	}
}

func TestDeliveryLatencyBounds(t *testing.T) {
	// A transaction is processed everywhere within
	// (Dmax + S + 1) switch delays of injection; the furthest destination
	// needs at least Dmax switch delays.
	for _, topo := range []*topology.Topology{topology.MustButterfly(4), topology.MustTorus(4, 4)} {
		cfg := DefaultConfig()
		k := sim.NewKernel()
		run := &stats.Run{}
		net := New(k, topo, cfg, &run.Traffic, run)
		var processed []sim.Time
		for ep := 0; ep < topo.Nodes(); ep++ {
			net.Register(ep, func(src int, seq uint64, payload any, arrived sim.Time) {
				processed = append(processed, k.Now())
			}, nil)
		}
		net.Start()
		k.RunUntil(150 * sim.Nanosecond)
		t0 := k.Now()
		net.Inject(5, nil)
		k.RunUntil(t0 + 500*sim.Nanosecond)
		if len(processed) != topo.Nodes() {
			t.Fatalf("%s: processed %d, want %d", topo.Name(), len(processed), topo.Nodes())
		}
		dmax := sim.Duration(topo.Dmax(5))
		// Dmax transit + initial slack + standing-token phase + the
		// strict-inequality batch tick, plus the network-exit overhead.
		upper := (dmax+sim.Duration(cfg.InitialSlack)+2)*cfg.Params.Dswitch + cfg.Params.Dovh
		for _, at := range processed {
			lat := at - t0
			if lat > upper {
				t.Errorf("%s: processing latency %v exceeds bound %v", topo.Name(), lat, upper)
			}
		}
		var maxLat sim.Time
		for _, at := range processed {
			if at-t0 > maxLat {
				maxLat = at - t0
			}
		}
		if maxLat < dmax*cfg.Params.Dswitch {
			t.Errorf("%s: max latency %v below physical minimum %v", topo.Name(), maxLat, dmax*cfg.Params.Dswitch)
		}
	}
}

// The central correctness property: many transactions injected from many
// sources at arbitrary times are processed in the identical total order at
// every endpoint, each exactly at (or one tick after) its ordering time.
func TestTotalOrderAgreementStress(t *testing.T) {
	for _, topo := range []*topology.Topology{topology.MustButterfly(4), topology.MustTorus(4, 4)} {
		for _, slack := range []int{0, 1, 3} {
			name := fmt.Sprintf("%s/S=%d", topo.Name(), slack)
			cfg := DefaultConfig()
			cfg.InitialSlack = slack
			k, net, logs, _ := buildNet(t, topo, cfg)
			net.TestHook = func(ep, src int, seq uint64, gt, ot uint64) {
				// Safety: never before the ordering time. Precision: the
				// strict-inequality batch tick plus at most one
				// standing-token phase tick.
				if gt <= ot || gt > ot+2 {
					t.Errorf("%s: ep%d processed %d/%d at GT %d, OT %d", name, ep, src, seq, gt, ot)
				}
			}
			rng := sim.NewRand(42)
			ins := make([]injection, 300)
			for i := range ins {
				at := sim.Time(rng.Int63n(int64(30 * sim.Microsecond)))
				ins[i] = injection{net: net, src: rng.Intn(topo.Nodes())}
				k.AtCall(at, injectEvent, &ins[i], nil, 0)
			}
			k.RunUntil(40 * sim.Microsecond)
			for i := range ins {
				if !ins[i].done {
					t.Fatalf("%s: injection %d never ran", name, i)
				}
			}
			checkAgreement(t, logs, 300)
		}
	}
}

// Contention mode exercises the full Figure 1 machinery: buffered
// transactions, tokens moving past them, zero-slack stalls, and dD
// adjustments — the Verify assertions prove the slack recurrence holds.
func TestTotalOrderUnderContention(t *testing.T) {
	for _, topo := range []*topology.Topology{topology.MustButterfly(4), topology.MustTorus(4, 4)} {
		for _, slack := range []int{0, 2} {
			cfg := DefaultConfig()
			cfg.InitialSlack = slack
			cfg.Contention = true
			k, net, logs, _ := buildNet(t, topo, cfg)
			net.TestHook = func(ep, src int, seq uint64, gt, ot uint64) {
				if gt <= ot {
					t.Errorf("contention: ep%d processed %d/%d at GT %d not after OT %d", ep, src, seq, gt, ot)
				}
			}
			rng := sim.NewRand(7)
			// Bursts: several sources inject at the same instant to force
			// output-port contention in the broadcast trees.
			ins := make([]injection, 40*6)
			for i := range ins {
				at := sim.Time(i/6) * 400 * sim.Nanosecond
				ins[i] = injection{net: net, src: rng.Intn(topo.Nodes())}
				k.AtCall(at, injectEvent, &ins[i], nil, 0)
			}
			k.RunUntil(60 * sim.Microsecond)
			checkAgreement(t, logs, 240)
		}
	}
}

func TestPeekConsumesEarly(t *testing.T) {
	topo := topology.MustButterfly(4)
	k := sim.NewKernel()
	run := &stats.Run{}
	net := New(k, topo, DefaultConfig(), &run.Traffic, run)
	orderedCalls := 0
	for ep := 0; ep < topo.Nodes(); ep++ {
		ep := ep
		net.Register(ep, func(src int, seq uint64, payload any, arrived sim.Time) {
			orderedCalls++
		}, func(src int, seq uint64, payload any, slackTicks int) bool {
			// Endpoints 1 and 2 consume everything early.
			return ep == 1 || ep == 2
		})
	}
	net.Start()
	k.RunUntil(50 * sim.Nanosecond)
	net.Inject(0, nil)
	k.RunUntil(300 * sim.Nanosecond)
	if orderedCalls != 14 {
		t.Fatalf("ordered calls = %d, want 14", orderedCalls)
	}
	if run.EarlyProcessed != 2 {
		t.Fatalf("early processed = %d, want 2", run.EarlyProcessed)
	}
}

func TestOrderingDelayRecorded(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	k, net, _, run := buildNet(t, topo, DefaultConfig())
	k.RunUntil(50 * sim.Nanosecond)
	net.Inject(0, nil)
	k.RunUntil(300 * sim.Nanosecond)
	if run.OrderingDelay.Count() != 16 {
		t.Fatalf("ordering delay samples = %d, want 16", run.OrderingDelay.Count())
	}
	// Near destinations on the torus arrive early and wait for their
	// ordering time: max ordering delay must exceed the minimum.
	if run.OrderingDelay.Max() <= run.OrderingDelay.Min() {
		t.Fatalf("ordering delays flat: min %v max %v", run.OrderingDelay.Min(), run.OrderingDelay.Max())
	}
}

func TestPerSourceSequenceNumbers(t *testing.T) {
	topo := topology.MustButterfly(4)
	k, net, logs, _ := buildNet(t, topo, DefaultConfig())
	k.RunUntil(50 * sim.Nanosecond)
	if s := net.Inject(4, nil); s != 0 {
		t.Fatalf("first seq = %d", s)
	}
	if s := net.Inject(4, nil); s != 1 {
		t.Fatalf("second seq = %d", s)
	}
	if s := net.Inject(5, nil); s != 0 {
		t.Fatalf("other source seq = %d", s)
	}
	k.RunUntil(500 * sim.Nanosecond)
	checkAgreement(t, logs, 3)
	// Same-source transactions keep injection order globally.
	var fours []uint64
	for _, r := range logs[0] {
		if r.src == 4 {
			fours = append(fours, r.seq)
		}
	}
	if len(fours) != 2 || fours[0] != 0 || fours[1] != 1 {
		t.Fatalf("source-4 order = %v", fours)
	}
}

func TestQueueOccupancyTracked(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	k, net, _, run := buildNet(t, topo, DefaultConfig())
	k.RunUntil(50 * sim.Nanosecond)
	for i := 0; i < 5; i++ {
		net.Inject(i, nil)
	}
	k.RunUntil(500 * sim.Nanosecond)
	if run.ReorderOccupancy.Max() < 1 {
		t.Fatal("reorder occupancy never rose above 0")
	}
	_ = net
}

func TestInjectBeforeStartPanics(t *testing.T) {
	topo := topology.MustButterfly(4)
	k := sim.NewKernel()
	var tr stats.Traffic
	net := New(k, topo, DefaultConfig(), &tr, &stats.Run{})
	defer func() {
		if recover() == nil {
			t.Fatal("Inject before Start did not panic")
		}
	}()
	net.Inject(0, nil)
}

func TestDoubleStartPanics(t *testing.T) {
	topo := topology.MustButterfly(4)
	k := sim.NewKernel()
	var tr stats.Traffic
	net := New(k, topo, DefaultConfig(), &tr, &stats.Run{})
	for ep := 0; ep < 16; ep++ {
		net.Register(ep, func(int, uint64, any, sim.Time) {}, nil)
	}
	net.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
	}()
	net.Start()
}

func TestBadConfigPanics(t *testing.T) {
	topo := topology.MustButterfly(4)
	k := sim.NewKernel()
	var tr stats.Traffic
	for _, c := range []struct {
		name string
		set  func(*Config)
	}{
		{"negative slack", func(c *Config) { c.InitialSlack = -1 }},
		{"zero tokens", func(c *Config) { c.TokensPerPort = 0 }},
		{"tokens above MaxTokensPerPort", func(c *Config) { c.TokensPerPort = MaxTokensPerPort + 1 }},
	} {
		cfg := DefaultConfig()
		c.set(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			New(k, topo, cfg, &tr, &stats.Run{})
		}()
	}
}

// The ordered handler runs at the instant its endpoint processes the
// transaction, not Dovh later: the network-exit overhead is the
// receiver's to model.
func TestOrderedHandlerRunsAtProcessing(t *testing.T) {
	for _, topo := range []*topology.Topology{topology.MustButterfly(4), topology.MustTorus(4, 4)} {
		k := sim.NewKernel()
		run := &stats.Run{}
		net := New(k, topo, DefaultConfig(), &run.Traffic, run)
		processedAt := make([]sim.Time, topo.Nodes())
		handled := 0
		for ep := 0; ep < topo.Nodes(); ep++ {
			net.Register(ep, func(src int, seq uint64, _ any, _ sim.Time) {
				handled++
				if now := k.Now(); now != processedAt[ep] {
					t.Errorf("%s ep%d: handler ran at %v, processed at %v", topo.Name(), ep, now, processedAt[ep])
				}
			}, nil)
		}
		net.TestHook = func(ep, _ int, _ uint64, _, _ uint64) { processedAt[ep] = k.Now() }
		net.Start()
		k.RunUntil(100 * sim.Nanosecond)
		net.Inject(3, nil)
		net.Inject(9, nil)
		k.RunUntil(600 * sim.Nanosecond)
		if handled != 2*topo.Nodes() {
			t.Fatalf("%s: handled %d copies, want %d", topo.Name(), handled, 2*topo.Nodes())
		}
	}
}

// Every side-table entry is freed once the last copy of its
// transaction arrives, however many destinations a multicast names, and
// a source with more transactions in flight than its ring holds grows
// the ring without losing one: Verify's consensus checks would panic on
// a mixed-up entry.
func TestFlightRingFreesEveryEntry(t *testing.T) {
	for _, topo := range []*topology.Topology{topology.MustButterfly(4), topology.MustTorus(4, 4)} {
		k, net, logs, _ := buildNet(t, topo, DefaultConfig())
		k.RunUntil(100 * sim.Nanosecond)
		rng := sim.NewRand(5)
		// A burst of 3*flightSlots from source 2 at one instant.
		for i := 0; i < 3*flightSlots; i++ {
			net.Inject(2, nil)
		}
		for i := 0; i < 200; i++ {
			k.RunUntil(k.Now() + sim.Time(rng.Int63n(int64(20*sim.Nanosecond))))
			src := rng.Intn(topo.Nodes())
			if rng.Bool(0.5) {
				net.Inject(src, nil)
				continue
			}
			// Every multicast names endpoint 0.
			net.InjectTo(src, rng.Uint64()&(1<<uint(topo.Nodes())-1)|1, nil)
		}
		k.RunUntil(k.Now() + 2*sim.Microsecond)
		if want := 3*flightSlots + 200; len(logs[0]) != want {
			t.Fatalf("%s: endpoint 0 processed %d transactions, want %d", topo.Name(), len(logs[0]), want)
		}
		if n := len(net.flights[2].slots); n <= flightSlots {
			t.Errorf("%s: source 2's ring holds %d entries after a burst of %d", topo.Name(), n, 3*flightSlots)
		}
		for src := range net.flights {
			r := &net.flights[src]
			if r.base != net.nextSeq[src] {
				t.Errorf("%s: source %d's oldest live entry is %d, want none (next %d)", topo.Name(), src, r.base, net.nextSeq[src])
			}
			for i := range r.slots {
				if r.slots[i].left != 0 {
					t.Errorf("%s: source %d slot %d still waits for %d copies", topo.Name(), src, i, r.slots[i].left)
				}
			}
		}
	}
}

func TestMoreTokensPerPort(t *testing.T) {
	// With two tokens per port, GT can run further ahead; the order
	// agreement must still hold.
	cfg := DefaultConfig()
	cfg.TokensPerPort = 2
	topo := topology.MustTorus(4, 4)
	k, net, logs, _ := buildNet(t, topo, cfg)
	rng := sim.NewRand(3)
	ins := make([]injection, 100)
	for i := range ins {
		at := sim.Time(rng.Int63n(int64(10 * sim.Microsecond)))
		ins[i] = injection{net: net, src: rng.Intn(16)}
		k.AtCall(at, injectEvent, &ins[i], nil, 0)
	}
	k.RunUntil(15 * sim.Microsecond)
	checkAgreement(t, logs, 100)
}
