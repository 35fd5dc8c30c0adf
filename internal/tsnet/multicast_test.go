package tsnet

import (
	"testing"

	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/topology"
)

func TestInjectToDeliversOnlyMaskMembers(t *testing.T) {
	for _, topo := range []*topology.Topology{topology.MustButterfly(4), topology.MustTorus(4, 4)} {
		k, net, logs, _ := buildNet(t, topo, DefaultConfig())
		k.RunUntil(100 * sim.Nanosecond)
		mask := uint64(1)<<3 | uint64(1)<<9 | uint64(1)<<14
		net.InjectTo(3, mask, "m")
		k.RunUntil(500 * sim.Nanosecond)
		for ep := 0; ep < 16; ep++ {
			want := 0
			if mask&(1<<uint(ep)) != 0 {
				want = 1
			}
			if len(logs[ep]) != want {
				t.Fatalf("%s: ep%d got %d deliveries, want %d", topo.Name(), ep, len(logs[ep]), want)
			}
		}
	}
}

func TestMulticastTrafficIsPrunedTree(t *testing.T) {
	// Butterfly multicast to {0, 15} from 0: injection (1) + mid links to
	// the two stage-1 switches (2) + two ejections (2) = 5 links.
	topo := topology.MustButterfly(4)
	k, net, _, run := buildNet(t, topo, DefaultConfig())
	k.RunUntil(100 * sim.Nanosecond)
	net.InjectTo(0, 1|1<<15, nil)
	k.RunUntil(300 * sim.Nanosecond)
	if got := run.Traffic.LinkBytes(stats.ClassRequest); got != 5*8 {
		t.Fatalf("multicast bytes = %d, want 40", got)
	}
}

func TestMulticastAndBroadcastShareOneOrder(t *testing.T) {
	// Interleaved multicasts and broadcasts from many sources: every
	// endpoint's subsequence must be consistent with one global order.
	topo := topology.MustTorus(4, 4)
	k, net, logs, _ := buildNet(t, topo, DefaultConfig())
	rng := sim.NewRand(77)
	type rec struct {
		src int
		seq uint64
	}
	ins := make([]injection, 200)
	for i := range ins {
		at := sim.Time(rng.Int63n(int64(20 * sim.Microsecond)))
		src := rng.Intn(16)
		ins[i] = injection{net: net, src: src}
		if rng.Bool(0.5) {
			ins[i].mask = uint64(1)<<uint(src) | uint64(1)<<uint(rng.Intn(16)) | uint64(1)<<uint(rng.Intn(16))
		}
		k.AtCall(at, injectEvent, &ins[i], nil, 0)
	}
	k.RunUntil(30 * sim.Microsecond)
	expect := make(map[rec]uint64) // txn -> mask
	for _, in := range ins {
		mask := in.mask
		if mask == 0 {
			mask = ^uint64(0)
		}
		expect[rec{in.src, in.seq}] = mask
	}

	// Delivery sets match the masks exactly.
	counts := map[rec]int{}
	for ep := range logs {
		for _, pr := range logs[ep] {
			r := rec{pr.src, pr.seq}
			mask, ok := expect[r]
			if !ok {
				t.Fatalf("unknown delivery %+v", r)
			}
			if mask&(1<<uint(ep)) == 0 {
				t.Fatalf("ep%d received txn %+v outside mask %x", ep, r, mask)
			}
			counts[r]++
		}
	}
	for r, mask := range expect {
		want := 0
		for ep := 0; ep < 16; ep++ {
			if mask&(1<<uint(ep)) != 0 {
				want++
			}
		}
		if counts[r] != want {
			t.Fatalf("txn %+v delivered %d times, want %d", r, counts[r], want)
		}
	}

	// Global order consistency: merge all endpoint logs; each pair of
	// transactions co-delivered at two endpoints must appear in the same
	// relative order at both.
	pos := make([]map[rec]int, 16)
	for ep := range logs {
		pos[ep] = map[rec]int{}
		for i, pr := range logs[ep] {
			pos[ep][rec{pr.src, pr.seq}] = i
		}
	}
	for a, maskA := range expect {
		for b, maskB := range expect {
			if a == b {
				continue
			}
			rel := 0 // -1 a<b, +1 a>b
			for ep := 0; ep < 16; ep++ {
				pa, oka := pos[ep][a]
				pb, okb := pos[ep][b]
				if !oka || !okb {
					continue
				}
				cur := -1
				if pa > pb {
					cur = 1
				}
				if rel == 0 {
					rel = cur
				} else if rel != cur {
					t.Fatalf("relative order of %+v and %+v differs across endpoints (masks %x, %x)",
						a, b, maskA, maskB)
				}
			}
		}
	}
}

func TestInjectToValidation(t *testing.T) {
	topo := topology.MustButterfly(4)
	k, net, _, _ := buildNet(t, topo, DefaultConfig())
	k.RunUntil(50 * sim.Nanosecond)
	defer func() {
		if recover() == nil {
			t.Fatal("empty mask accepted")
		}
	}()
	net.InjectTo(0, 0, nil)
}

func TestTopologyMulticastLinks(t *testing.T) {
	bf := topology.MustButterfly(4)
	// Full mask equals the broadcast count.
	if got := bf.MulticastLinks(0, ^uint64(0)); got != 21 {
		t.Fatalf("full-mask links = %d, want 21", got)
	}
	// Self only: still traverses the full path back to self (3 links).
	if got := bf.MulticastLinks(0, 1); got != 3 {
		t.Fatalf("self-mask links = %d, want 3", got)
	}
	to := topology.MustTorus(4, 4)
	if got := to.MulticastLinks(0, ^uint64(0)); got != 15 {
		t.Fatalf("torus full-mask links = %d, want 15", got)
	}
	// Self on the torus: on-die ejection only, zero counted links.
	if got := to.MulticastLinks(0, 1); got != 0 {
		t.Fatalf("torus self-mask links = %d, want 0", got)
	}
	// A single distance-2 destination: 2 links.
	if got := to.MulticastLinks(0, 1<<2); got != 2 {
		t.Fatalf("torus distance-2 mask links = %d, want 2", got)
	}
}
