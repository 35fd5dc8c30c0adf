package topology

import "fmt"

// Torus constructs a WxH bidirectional 2D torus with one switch per
// endpoint, integrated on the processor die as in the Compaq Alpha 21364
// design the paper models. Endpoint<->switch links are on-die and cost 0;
// switch<->switch links cost 1.
//
// Broadcasts use dimension-order spanning trees (cover the source's row in
// x, then every column in y), which are minimum-depth: each endpoint is
// reached at its torus distance. On a 4x4 a broadcast uses 15 links with a
// worst-case depth of 4 and a mean arrival depth of 2 links.
func Torus(w, h int) (*Topology, error) {
	if w < 2 || h < 2 {
		return nil, fmt.Errorf("topology: torus dimensions must be >= 2, got %dx%d", w, h)
	}
	n := w * h
	t := &Topology{
		name:     fmt.Sprintf("torus-%dx%d", w, h),
		n:        n,
		switches: make([]Switch, n),
		epOut:    make([]LinkID, n),
		epIn:     make([]LinkID, n),
	}
	for i := range t.switches {
		t.switches[i].ID = i
	}
	node := func(x, y int) int { return y*w + x }
	wrap := func(v, m int) int { return ((v % m) + m) % m }
	// A switch links to 2 neighbours per dimension, or 1 in a dimension
	// of size 2, plus its own endpoint.
	nbrs := min(w-1, 2) + min(h-1, 2)
	t.reserve(n*(2+nbrs), 1+nbrs, 1+nbrs)

	// Endpoint links (on-die, cost 0).
	for ep := 0; ep < n; ep++ {
		t.epOut[ep] = t.addLink(Vertex{KindEndpoint, ep}, Vertex{KindSwitch, ep}, 0)
		t.epIn[ep] = t.addLink(Vertex{KindSwitch, ep}, Vertex{KindEndpoint, ep}, 0)
	}
	// Switch-to-switch links in +x, -x, +y, -y directions.
	swLink := make(map[[2]int]LinkID, n*nbrs)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			from := node(x, y)
			for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				to := node(wrap(x+d[0], w), wrap(y+d[1], h))
				if to == from {
					continue // degenerate dimension (w or h == 1 is rejected above)
				}
				key := [2]int{from, to}
				if _, ok := swLink[key]; !ok {
					swLink[key] = t.addLink(Vertex{KindSwitch, from}, Vertex{KindSwitch, to}, 1)
				}
			}
		}
	}

	// ringOffsets returns the signed offsets each direction chain covers for
	// a ring of size m: positives 1..ceil((m-1)/2), negatives -1..-floor((m-1)/2).
	ringChains := func(m int) (pos, neg int) {
		pos = m / 2
		neg = (m - 1) / 2
		return
	}

	nodes := make(treeNodes, 0, 1+2*n)
	for src := 0; src < n; src++ {
		sx, sy := src%w, src/w
		nodes = nodes[:0]
		root := nodes.add(nil, Vertex{KindEndpoint, src}, 0, -1)
		srcSw := nodes.add(root, Vertex{KindSwitch, src}, 0, t.epOut[src])

		// Build the y-chain below a switch at (x, y0) (including its own
		// endpoint ejection), returning the subtree rooted at that switch
		// node (which the caller has already created).
		buildColumn := func(colRoot *treeNode, x int) {
			y0 := colRoot.vertex.Index / w
			eject := func(nd *treeNode) {
				ep := nd.vertex.Index
				nodes.add(nd, Vertex{KindEndpoint, ep}, nd.depth, t.epIn[ep])
			}
			eject(colRoot)
			posN, negN := ringChains(h)
			for _, dir := range []int{+1, -1} {
				steps := posN
				if dir < 0 {
					steps = negN
				}
				prev := colRoot
				for s := 1; s <= steps; s++ {
					y := wrap(y0+dir*s, h)
					from := prev.vertex.Index
					to := node(x, y)
					nd := nodes.add(prev, Vertex{KindSwitch, to}, prev.depth+1, swLink[[2]int{from, to}])
					eject(nd)
					prev = nd
				}
			}
		}

		// Row chains in x from the source switch; each row switch roots a
		// column chain.
		buildColumn(srcSw, sx)
		posN, negN := ringChains(w)
		for _, dir := range []int{+1, -1} {
			steps := posN
			if dir < 0 {
				steps = negN
			}
			prev := srcSw
			for s := 1; s <= steps; s++ {
				x := wrap(sx+dir*s, w)
				from := prev.vertex.Index
				to := node(x, sy)
				nd := nodes.add(prev, Vertex{KindSwitch, to}, prev.depth+1, swLink[[2]int{from, to}])
				buildColumn(nd, x)
				prev = nd
			}
		}
		t.finishTree(src, nodes)
	}
	return t, nil
}

// MustTorus is Torus but panics on error; for tests and examples.
func MustTorus(w, h int) *Topology {
	t, err := Torus(w, h)
	if err != nil {
		panic(err)
	}
	return t
}
