package topology

import (
	"testing"
	"testing/quick"
)

// walkBroadcast routes a broadcast through tree's Route table exactly the
// way a tsnet switch would, returning per-destination (cost-sum depth,
// accumulated dD). It fails the test on duplicate delivery.
func walkBroadcast(t *testing.T, topo *Topology, tree *BroadcastTree) (depth, sumDD map[int]int) {
	t.Helper()
	depth = make(map[int]int)
	sumDD = make(map[int]int)
	type state struct {
		link LinkID
		d    int
		dd   int
	}
	queue := []state{{link: topo.EndpointOut(tree.Source), d: topo.Link(topo.EndpointOut(tree.Source)).Cost}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		to := topo.Link(cur.link).To
		if to.Kind == KindEndpoint {
			if _, dup := depth[to.Index]; dup {
				t.Fatalf("endpoint %d delivered twice in tree from %d", to.Index, tree.Source)
			}
			depth[to.Index] = cur.d
			sumDD[to.Index] = cur.dd
			continue
		}
		branches := tree.Route[to.Index]
		if branches == nil {
			t.Fatalf("no route at switch %d for source %d", to.Index, tree.Source)
		}
		for _, b := range branches {
			queue = append(queue, state{
				link: b.Link,
				d:    cur.d + topo.Link(b.Link).Cost,
				dd:   cur.dd + b.DeltaD,
			})
		}
	}
	return depth, sumDD
}

func checkTree(t *testing.T, topo *Topology, src int) {
	t.Helper()
	tree := topo.BroadcastTree(src)
	depth, sumDD := walkBroadcast(t, topo, tree)
	if len(depth) != topo.Nodes() {
		t.Fatalf("tree from %d reached %d endpoints, want %d", src, len(depth), topo.Nodes())
	}
	for ep := 0; ep < topo.Nodes(); ep++ {
		if depth[ep] != tree.Depth[ep] {
			t.Errorf("tree %d: walked depth to %d = %d, recorded %d", src, ep, depth[ep], tree.Depth[ep])
		}
		// The central dD invariant: depth + sum(dD) = MaxDepth for every
		// destination, so slack adjustments keep OT invariant (Section 2.2).
		if depth[ep]+sumDD[ep] != tree.MaxDepth {
			t.Errorf("tree %d: depth(%d)+sumDD = %d+%d != MaxDepth %d",
				src, ep, depth[ep], sumDD[ep], tree.MaxDepth)
		}
		if sumDD[ep] < 0 {
			t.Errorf("tree %d: negative accumulated dD at %d", src, ep)
		}
	}
}

func TestButterflyShape(t *testing.T) {
	topo := MustButterfly(4)
	if topo.Nodes() != 16 {
		t.Fatalf("nodes = %d, want 16", topo.Nodes())
	}
	if topo.NumSwitches() != 8 {
		t.Fatalf("switches = %d, want 8", topo.NumSwitches())
	}
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			want := 3
			if s == d {
				want = 0
			}
			if got := topo.Hops(s, d); got != want {
				t.Fatalf("hops(%d,%d) = %d, want %d", s, d, got, want)
			}
		}
	}
}

func TestButterflyBroadcastMatchesPaper(t *testing.T) {
	// "A 16 processor radix-4 butterfly delivers a message using 3 links
	// and broadcasts a transaction with 3-link latency using 21 links
	// (1+4+16)."
	topo := MustButterfly(4)
	for src := 0; src < 16; src++ {
		tree := topo.BroadcastTree(src)
		if tree.TotalLinks != 21 {
			t.Errorf("broadcast links from %d = %d, want 21", src, tree.TotalLinks)
		}
		if tree.MaxDepth != 3 {
			t.Errorf("Dmax from %d = %d, want 3", src, tree.MaxDepth)
		}
		for ep, d := range tree.Depth {
			if d != 3 {
				t.Errorf("depth %d->%d = %d, want 3", src, ep, d)
			}
		}
		// The butterfly tree is balanced: every dD must be zero.
		for sw, branches := range tree.Route {
			for _, b := range branches {
				if b.DeltaD != 0 {
					t.Errorf("butterfly dD at switch %d = %d, want 0", sw, b.DeltaD)
				}
			}
		}
		checkTree(t, topo, src)
	}
}

func TestButterflyRadix2And8(t *testing.T) {
	for _, r := range []int{2, 8} {
		topo := MustButterfly(r)
		if topo.Nodes() != r*r {
			t.Fatalf("radix %d nodes = %d", r, topo.Nodes())
		}
		want := 1 + r + r*r
		for src := 0; src < topo.Nodes(); src++ {
			if got := topo.BroadcastLinks(src); got != want {
				t.Fatalf("radix %d broadcast links = %d, want %d", r, got, want)
			}
			checkTree(t, topo, src)
		}
	}
}

func TestButterflyRejectsBadRadix(t *testing.T) {
	if _, err := Butterfly(1); err == nil {
		t.Fatal("Butterfly(1) succeeded, want error")
	}
}

func torusDist(w, h, a, b int) int {
	ax, ay := a%w, a/w
	bx, by := b%w, b/w
	dx := ax - bx
	if dx < 0 {
		dx = -dx
	}
	if w-dx < dx {
		dx = w - dx
	}
	dy := ay - by
	if dy < 0 {
		dy = -dy
	}
	if h-dy < dy {
		dy = h - dy
	}
	return dx + dy
}

func TestTorusHopsAreTorusDistance(t *testing.T) {
	topo := MustTorus(4, 4)
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			want := torusDist(4, 4, s, d)
			if s == d {
				want = 0
			}
			if got := topo.Hops(s, d); got != want {
				t.Fatalf("hops(%d,%d) = %d, want %d", s, d, got, want)
			}
		}
	}
}

func TestTorusBroadcastMatchesPaper(t *testing.T) {
	// "A torus delivers messages using a mean of 2 links and broadcasts
	// transactions using 15 links with a mean arrival latency of 2 links
	// and worst-case latency of 4 links."
	topo := MustTorus(4, 4)
	for src := 0; src < 16; src++ {
		tree := topo.BroadcastTree(src)
		if tree.TotalLinks != 15 {
			t.Errorf("broadcast links from %d = %d, want 15", src, tree.TotalLinks)
		}
		if tree.MaxDepth != 4 {
			t.Errorf("Dmax from %d = %d, want 4", src, tree.MaxDepth)
		}
		sum := 0
		for _, d := range tree.Depth {
			sum += d
		}
		// Mean arrival over all 16 endpoints (including self at depth 0)
		// is exactly 2 links on a 4x4 torus.
		if mean := float64(sum) / 16; mean != 2.0 {
			t.Errorf("mean broadcast depth from %d = %v, want 2.0", src, mean)
		}
		checkTree(t, topo, src)
	}
}

func TestTorusSelfDeliveryWaitsDmax(t *testing.T) {
	// The source's own copy is delivered at depth 0 but must accumulate
	// dD = Dmax so that it is processed exactly at its ordering time.
	topo := MustTorus(4, 4)
	for src := 0; src < 16; src++ {
		tree := topo.BroadcastTree(src)
		_, sumDD := walkBroadcast(t, topo, tree)
		if sumDD[src] != tree.MaxDepth {
			t.Errorf("self dD from %d = %d, want %d", src, sumDD[src], tree.MaxDepth)
		}
	}
}

func TestTorusRectangular(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {2, 4}, {4, 2}, {3, 3}, {5, 3}, {8, 8}} {
		topo := MustTorus(dims[0], dims[1])
		n := dims[0] * dims[1]
		if topo.Nodes() != n {
			t.Fatalf("%v nodes = %d", dims, topo.Nodes())
		}
		for src := 0; src < n; src++ {
			if got := topo.BroadcastLinks(src); got != n-1 {
				t.Fatalf("torus %v broadcast links from %d = %d, want %d", dims, src, got, n-1)
			}
			checkTree(t, topo, src)
		}
	}
}

func TestTorusRejectsDegenerate(t *testing.T) {
	for _, dims := range [][2]int{{1, 4}, {4, 1}, {0, 0}} {
		if _, err := Torus(dims[0], dims[1]); err == nil {
			t.Fatalf("Torus(%v) succeeded, want error", dims)
		}
	}
}

func TestMeanHops(t *testing.T) {
	bf := MustButterfly(4)
	if got := bf.MeanHops(); got != 3.0 {
		t.Errorf("butterfly mean hops = %v, want 3", got)
	}
	to := MustTorus(4, 4)
	// Per source: sum over 15 others = 32; 32/15.
	want := 32.0 / 15.0
	if got := to.MeanHops(); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("torus mean hops = %v, want %v", got, want)
	}
}

func TestMaxHops(t *testing.T) {
	if got := MustButterfly(4).MaxHops(0); got != 3 {
		t.Errorf("butterfly max hops = %d, want 3", got)
	}
	if got := MustTorus(4, 4).MaxHops(5); got != 4 {
		t.Errorf("torus max hops = %d, want 4", got)
	}
}

// Property: for random torus shapes, every broadcast tree satisfies the
// dD/depth invariant and reaches every endpoint exactly once.
func TestTorusTreeInvariantProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		w := int(a%6) + 2
		h := int(b%6) + 2
		topo := MustTorus(w, h)
		for src := 0; src < topo.Nodes(); src++ {
			tree := topo.BroadcastTree(src)
			depth, sumDD := walkBroadcast(t, topo, tree)
			if len(depth) != topo.Nodes() {
				return false
			}
			for ep := range depth {
				if depth[ep]+sumDD[ep] != tree.MaxDepth {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkEndpointAccessors(t *testing.T) {
	topo := MustButterfly(4)
	for ep := 0; ep < 16; ep++ {
		out := topo.Link(topo.EndpointOut(ep))
		if out.From.Kind != KindEndpoint || out.From.Index != ep {
			t.Fatalf("EndpointOut(%d) does not start at endpoint: %v", ep, out)
		}
		in := topo.Link(topo.EndpointIn(ep))
		if in.To.Kind != KindEndpoint || in.To.Index != ep {
			t.Fatalf("EndpointIn(%d) does not end at endpoint: %v", ep, in)
		}
	}
}

func TestSwitchLinkConsistency(t *testing.T) {
	for _, topo := range []*Topology{MustButterfly(4), MustTorus(4, 4)} {
		for _, sw := range topo.Switches() {
			for _, id := range sw.In {
				if l := topo.Link(id); l.To.Kind != KindSwitch || l.To.Index != sw.ID {
					t.Fatalf("%s: switch %d In link %d does not terminate there", topo.Name(), sw.ID, id)
				}
			}
			for _, id := range sw.Out {
				if l := topo.Link(id); l.From.Kind != KindSwitch || l.From.Index != sw.ID {
					t.Fatalf("%s: switch %d Out link %d does not originate there", topo.Name(), sw.ID, id)
				}
			}
		}
	}
}
