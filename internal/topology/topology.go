// Package topology describes the switched interconnects evaluated in the
// paper: four-butterfly indirect networks (modelled as one radix-r
// two-stage butterfly token domain) and WxH bidirectional 2D tori.
//
// A Topology is an explicit directed graph of endpoints and switches. Two
// consumers use it:
//
//   - The unloaded point-to-point fabric (package network) needs hop counts
//     (latency) and link counts (traffic) between endpoint pairs.
//   - The timestamp-snooping address network (package tsnet) needs the full
//     switch graph: input/output link sets per switch, plus a broadcast
//     spanning tree per source with the paper's per-branch dD values
//     ("the magnitude of the decrease in maximum pipeline depth for a
//     branch of the broadcast", Section 2.2).
//
// Link cost conventions follow the paper's link accounting:
//
//   - Butterfly: endpoint<->switch links are physical chip-to-chip links
//     (cost 1). A 16-endpoint radix-4 butterfly delivers point-to-point
//     messages over 3 links and broadcasts over 21 links (1+4+16).
//   - Torus: the switch is integrated on the processor die, so
//     endpoint<->switch links are free (cost 0). Point-to-point messages
//     use the torus distance in links; broadcasts use 15 links on a 4x4.
package topology

import "fmt"

// LinkID identifies a directed link within a Topology.
type LinkID int

// VertexKind discriminates the two vertex types of the network graph.
type VertexKind int

// Vertex kinds.
const (
	KindEndpoint VertexKind = iota
	KindSwitch
)

// Vertex is either an endpoint (processor/memory node network interface)
// or a switch.
type Vertex struct {
	Kind  VertexKind
	Index int
}

func (v Vertex) String() string {
	if v.Kind == KindEndpoint {
		return fmt.Sprintf("ep%d", v.Index)
	}
	return fmt.Sprintf("sw%d", v.Index)
}

// Link is a directed link. Cost is the logical hop count of traversing the
// link: 1 for physical links (15 ns switch traversals in the paper's
// timing model) and 0 for on-die endpoint<->switch connections in the
// torus. Links with Cost > 0 are counted in traffic totals.
type Link struct {
	ID       LinkID
	From, To Vertex
	Cost     int
}

// Counted reports whether traffic over this link contributes to the
// paper's link-traffic totals (Figure 4).
func (l Link) Counted() bool { return l.Cost > 0 }

// Switch lists a switch's incoming and outgoing links.
type Switch struct {
	ID  int
	In  []LinkID
	Out []LinkID
}

// Branch is one output of a broadcast routing step: forward on Link, and
// increase the transaction's slack by DeltaD (the decrease in the maximum
// remaining pipeline depth relative to the longest branch). Reach is the
// set of endpoints (bitmask, bit i = endpoint i) delivered through this
// branch; multicast pruning drops branches whose reach does not
// intersect the destination set, which never alters a surviving copy's
// path and therefore preserves every ordering-time invariant. Multicast
// needs at most 64 nodes; on larger machines every endpoint from 63 up
// shares bit 63, so a broadcast's all-ones mask still reaches them.
type Branch struct {
	Link   LinkID
	DeltaD int
	Reach  uint64
}

// BroadcastTree is the statically balanced minimum-depth spanning tree used
// to broadcast a source's address transactions to every endpoint.
type BroadcastTree struct {
	Source int
	// TotalLinks is the number of counted links in the tree — the traffic
	// cost of one broadcast.
	TotalLinks int
	// Depth[d] is the logical hop count from the source to endpoint d.
	Depth []int
	// MaxDepth is the maximum of Depth; it is the Dmax term of the
	// ordering-time assignment OT = GT_source + Dmax + S.
	MaxDepth int
	// Route[sw] is the branch list a transaction from Source takes when
	// it arrives at switch sw: nil when sw is not on the tree.
	Route [][]Branch
}

// Topology is a fully constructed interconnect description.
type Topology struct {
	name     string
	n        int
	switches []Switch
	links    []Link
	epOut    []LinkID // injection link per endpoint
	epIn     []LinkID // ejection link per endpoint
	trees    []BroadcastTree
}

// Name returns a short human-readable topology name.
func (t *Topology) Name() string { return t.name }

// Nodes returns the number of endpoints.
func (t *Topology) Nodes() int { return t.n }

// NumSwitches returns the number of switches.
func (t *Topology) NumSwitches() int { return len(t.switches) }

// Switches returns the switch descriptors (shared slice; do not mutate).
func (t *Topology) Switches() []Switch { return t.switches }

// Links returns the link descriptors (shared slice; do not mutate).
func (t *Topology) Links() []Link { return t.links }

// Link returns the descriptor for id.
func (t *Topology) Link(id LinkID) Link { return t.links[id] }

// EndpointOut returns the injection link of endpoint ep.
func (t *Topology) EndpointOut(ep int) LinkID { return t.epOut[ep] }

// EndpointIn returns the ejection link of endpoint ep.
func (t *Topology) EndpointIn(ep int) LinkID { return t.epIn[ep] }

// Hops returns the logical hop count (equivalently, the number of counted
// links) for a point-to-point message from src to dst: the broadcast
// tree paths are minimal. Hops(i, i) is 0: a node reaching its own
// memory controller does not enter the network.
func (t *Topology) Hops(src, dst int) int {
	if src == dst {
		return 0
	}
	return t.trees[src].Depth[dst]
}

// MaxHops returns the largest point-to-point hop count from src.
func (t *Topology) MaxHops(src int) int {
	m := 0
	for dst := 0; dst < t.n; dst++ {
		if h := t.Hops(src, dst); h > m {
			m = h
		}
	}
	return m
}

// MeanHops returns the mean point-to-point hop count over all ordered
// pairs with src != dst.
func (t *Topology) MeanHops() float64 {
	sum, cnt := 0, 0
	for s := 0; s < t.n; s++ {
		for d := 0; d < t.n; d++ {
			if s == d {
				continue
			}
			sum += t.Hops(s, d)
			cnt++
		}
	}
	return float64(sum) / float64(cnt)
}

// BroadcastTree returns the broadcast tree rooted at endpoint src.
func (t *Topology) BroadcastTree(src int) *BroadcastTree { return &t.trees[src] }

// BroadcastLinks returns the traffic cost (counted links) of one broadcast
// from src.
func (t *Topology) BroadcastLinks(src int) int { return t.trees[src].TotalLinks }

// Dmax returns the maximum broadcast depth from src — the logical time a
// transaction needs to reach its furthest destination.
func (t *Topology) Dmax(src int) int { return t.trees[src].MaxDepth }

// treeNode is scaffolding used while building broadcast trees. A node's
// children form a list in the order they were added, which is the order
// of its switch's branches.
type treeNode struct {
	vertex Vertex
	depth  int
	inLink LinkID // link by which the broadcast reaches this vertex (-1 at root)
	kids   int
	first  *treeNode // first child
	last   *treeNode // last child
	next   *treeNode // next sibling
}

// treeNodes hands out the nodes of one tree at a time: every tree of a
// topology reuses one array, sized for the largest tree.
type treeNodes []treeNode

// add appends a child of parent (the root, when parent is nil) at
// vertex v, depth and inLink.
func (a *treeNodes) add(parent *treeNode, v Vertex, depth int, inLink LinkID) *treeNode {
	*a = append(*a, treeNode{vertex: v, depth: depth, inLink: inLink})
	nd := &(*a)[len(*a)-1]
	if parent != nil {
		if parent.last == nil {
			parent.first = nd
		} else {
			parent.last.next = nd
		}
		parent.last = nd
		parent.kids++
	}
	return nd
}

// reserve sizes the topology for links links and gives every switch
// room for in input and out output links, all switches' ports sharing
// one backing array, so addLink never grows a slice. It also makes the
// n broadcast trees, every tree's Depth sharing one backing array and
// every tree's Route another.
func (t *Topology) reserve(links, in, out int) {
	t.links = make([]Link, 0, links)
	ports := make([]LinkID, len(t.switches)*(in+out))
	for i := range t.switches {
		p := ports[i*(in+out):]
		t.switches[i].In, t.switches[i].Out = p[:0:in], p[in:in:in+out]
	}
	n, s := t.n, len(t.switches)
	t.trees = make([]BroadcastTree, n)
	depth, route := make([]int, n*n), make([][]Branch, n*s)
	for src := range t.trees {
		t.trees[src] = BroadcastTree{
			Source: src,
			Depth:  depth[src*n : (src+1)*n : (src+1)*n],
			Route:  route[src*s : (src+1)*s : (src+1)*s],
		}
	}
}

// finishTree converts the tree built in nodes, rooted at nodes[0], into
// src's BroadcastTree, computing per-branch dD values from subtree
// residual depths. Every switch's branches share one backing array.
func (t *Topology) finishTree(src int, nodes treeNodes) {
	bt := &t.trees[src]
	for i := range bt.Depth {
		bt.Depth[i] = -1
	}
	nb := 0
	for i := range nodes {
		if nodes[i].vertex.Kind == KindSwitch {
			nb += nodes[i].kids
		}
	}
	all := make([]Branch, nb)
	var walk func(nd *treeNode) (int, uint64) // residual depth and endpoint reach below nd
	walk = func(nd *treeNode) (int, uint64) {
		var reach uint64
		if nd.vertex.Kind == KindEndpoint && nd.inLink >= 0 {
			bt.Depth[nd.vertex.Index] = nd.depth
			if nd.depth > bt.MaxDepth {
				bt.MaxDepth = nd.depth
			}
			reach |= 1 << uint(min(nd.vertex.Index, 63))
		}
		// A switch's branches hold each branch's depth below in DeltaD
		// until the residual depth is known.
		var branches []Branch
		if nd.vertex.Kind == KindSwitch {
			branches, all = all[:nd.kids:nd.kids], all[nd.kids:]
			bt.Route[nd.vertex.Index] = branches
		}
		residual := 0
		i := 0
		for c := nd.first; c != nil; c, i = c.next, i+1 {
			below, childReach := walk(c)
			below += t.links[c.inLink].Cost // cost(link) + residual(child)
			if branches != nil {
				branches[i] = Branch{Link: c.inLink, DeltaD: below, Reach: childReach}
			}
			reach |= childReach
			if below > residual {
				residual = below
			}
			if t.links[c.inLink].Counted() {
				bt.TotalLinks++
			}
		}
		for i := range branches {
			branches[i].DeltaD = residual - branches[i].DeltaD
		}
		return residual, reach
	}
	walk(&nodes[0])
}

func (t *Topology) addLink(from, to Vertex, cost int) LinkID {
	id := LinkID(len(t.links))
	t.links = append(t.links, Link{ID: id, From: from, To: to, Cost: cost})
	if from.Kind == KindSwitch {
		t.switches[from.Index].Out = append(t.switches[from.Index].Out, id)
	}
	if to.Kind == KindSwitch {
		t.switches[to.Index].In = append(t.switches[to.Index].In, id)
	}
	return id
}

// MulticastLinks returns the number of counted links a multicast from src
// to the endpoint set mask traverses on the pruned broadcast tree (the
// traffic cost of one multicast). Only defined for machines with at most
// 64 endpoints.
func (t *Topology) MulticastLinks(src int, mask uint64) int {
	tree := &t.trees[src]
	links := 0
	inj := t.links[t.epOut[src]]
	if inj.Counted() {
		links++
	}
	var desc func(sw int)
	desc = func(sw int) {
		for _, b := range tree.Route[sw] {
			if b.Reach&mask == 0 {
				continue
			}
			if t.links[b.Link].Counted() {
				links++
			}
			if to := t.links[b.Link].To; to.Kind == KindSwitch {
				desc(to.Index)
			}
		}
	}
	if to := inj.To; to.Kind == KindSwitch {
		desc(to.Index)
	}
	return links
}
