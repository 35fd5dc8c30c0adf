package topology

import "fmt"

// Butterfly constructs a two-stage radix-r indirect butterfly connecting
// r*r endpoints, as in the paper's 16-processor radix-4 configuration.
//
// Endpoint i injects into first-stage switch i/r; first-stage switch a
// connects to every second-stage switch; second-stage switch j ejects to
// endpoints j*r .. j*r+r-1. Every point-to-point path is exactly 3 links
// and a broadcast uses 1 + r + r*r links, delivered to every endpoint at
// depth 3 (the tree is perfectly balanced, so every dD is zero).
//
// The paper provisions four such butterflies selected round-robin purely
// for bandwidth; because network contention is not modelled (Section 4.3),
// the replicas are unobservable and a single butterfly token domain is
// constructed (see DESIGN.md, substitutions).
func Butterfly(radix int) (*Topology, error) {
	if radix < 2 {
		return nil, fmt.Errorf("topology: butterfly radix must be >= 2, got %d", radix)
	}
	n := radix * radix
	t := &Topology{
		name:     fmt.Sprintf("butterfly-r%d", radix),
		n:        n,
		switches: make([]Switch, 2*radix),
		epOut:    make([]LinkID, n),
		epIn:     make([]LinkID, n),
	}
	for i := range t.switches {
		t.switches[i].ID = i
	}
	// Every switch has radix inputs and radix outputs: n injection, n
	// ejection and radix*radix middle links.
	t.reserve(3*n, radix, radix)
	// Stage-0 switch for endpoint group g is switch g; stage-1 switch j is
	// switch radix+j.
	stage0 := func(g int) int { return g }
	stage1 := func(j int) int { return radix + j }

	// Injection links: endpoint -> its stage-0 switch.
	for ep := 0; ep < n; ep++ {
		t.epOut[ep] = t.addLink(Vertex{KindEndpoint, ep}, Vertex{KindSwitch, stage0(ep / radix)}, 1)
	}
	// Middle links: each stage-0 switch to each stage-1 switch.
	mid := make([]LinkID, radix*radix) // stage-0 switch a to stage-1 j at a*radix+j
	for a := 0; a < radix; a++ {
		for j := 0; j < radix; j++ {
			mid[a*radix+j] = t.addLink(Vertex{KindSwitch, stage0(a)}, Vertex{KindSwitch, stage1(j)}, 1)
		}
	}
	// Ejection links: stage-1 switch j to endpoints j*radix..j*radix+radix-1.
	for ep := 0; ep < n; ep++ {
		t.epIn[ep] = t.addLink(Vertex{KindSwitch, stage1(ep / radix)}, Vertex{KindEndpoint, ep}, 1)
	}

	// Broadcast trees: source -> stage0 -> all stage1 -> all endpoints.
	nodes := make(treeNodes, 0, 2+radix+n)
	for src := 0; src < n; src++ {
		nodes = nodes[:0]
		root := nodes.add(nil, Vertex{KindEndpoint, src}, 0, -1)
		s0 := nodes.add(root, Vertex{KindSwitch, stage0(src / radix)}, 1, t.epOut[src])
		for j := 0; j < radix; j++ {
			s1 := nodes.add(s0, Vertex{KindSwitch, stage1(j)}, 2, mid[src/radix*radix+j])
			for k := 0; k < radix; k++ {
				ep := j*radix + k
				nodes.add(s1, Vertex{KindEndpoint, ep}, 3, t.epIn[ep])
			}
		}
		t.finishTree(src, nodes)
	}
	return t, nil
}

// MustButterfly is Butterfly but panics on error; for tests and examples.
func MustButterfly(radix int) *Topology {
	t, err := Butterfly(radix)
	if err != nil {
		panic(err)
	}
	return t
}
