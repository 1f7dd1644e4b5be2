package verify

import (
	"qdc/internal/congest"
	"qdc/internal/dist/engine"
	"qdc/internal/graph"
)

// mAdjacency restricts the subnetwork M to the edges actually present in g
// and returns, for every node, the sorted list of its M-neighbours — the
// node-local view of M that the verification problems of Section 2.2 assume
// (each node knows which of its incident edges belong to M).
func mAdjacency(g *graph.Graph, m *graph.EdgeSet) [][]int {
	adj := make([][]int, g.N())
	for _, e := range g.Edges() {
		if m.Contains(e.U, e.V) {
			adj[e.U] = append(adj[e.U], e.V)
			adj[e.V] = append(adj[e.V], e.U)
		}
	}
	return adj
}

// Message kinds of the labelling and colouring stages. Each charges a type
// tag plus its field's bits; the golden digests in words_test.go hold the
// accounting.
const (
	kindLabel uint8 = 1 // W0: the sender's component label
	kindDist  uint8 = 2 // W0: the sender's M-BFS distance
	kindColor uint8 = 3 // W0: the sender's layer-parity colour
)

// labelNode floods the minimum node ID along M-edges for n rounds, after
// which every node's label is the smallest ID in its M-component (the
// M-diameter is at most n−1, so n propagation rounds always suffice). The
// component leaders — nodes whose label equals their own ID — then identify
// the components for the aggregation stage. runLabels reads label from the
// node slab: a node votes done only in round n+1, once nothing can change
// it.
type labelNode struct {
	mNbrs    []int
	label    int
	lastSent int
}

func (l *labelNode) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	for i := range inbox {
		if inbox[i].Kind == kindLabel {
			if v := inbox[i].Int0(); v < l.label {
				l.label = v
			}
		}
	}
	n := ctx.N()
	if round > n {
		return nil, true
	}
	if l.label != l.lastSent {
		l.lastSent = l.label
		bits := tagBits + congest.BitsForID(n)
		return congest.BroadcastWordsInto(ctx.Outbox(), l.mNbrs, kindLabel, uint64(l.label), 0, bits), false
	}
	return nil, false
}

// runLabels executes the component-labelling stage and returns the label of
// every node, read from the node slab.
func runLabels(r engine.Runner, mAdj [][]int) ([]int, error) {
	nodes := make([]labelNode, r.Size())
	factory := func(ctx *congest.Context) congest.Node {
		v := ctx.ID()
		nodes[v] = labelNode{mNbrs: mAdj[v], label: v, lastSent: -1}
		return &nodes[v]
	}
	if _, err := r.RunStage(factory, nil, r.Size()+8); err != nil {
		return nil, err
	}
	labels := make([]int, len(nodes))
	for v := range nodes {
		labels[v] = nodes[v].label
	}
	return labels, nil
}

// colorNode 2-colours each M-component by BFS-layer parity: component
// leaders are at distance 0, M-BFS distances propagate for n rounds, each
// node's colour is its distance parity, and one final exchange over M-edges
// detects monochromatic edges — which exist iff the component contains an
// odd cycle (iff M is not bipartite). Both message kinds travel
// word-encoded (kindDist, kindColor). runColors reads conflict from the
// node slab: a node votes done only in round n+2, after the colour
// exchange of round n+1 has reached it.
type colorNode struct {
	mNbrs    []int
	dist     int
	lastSent int
	conflict bool
}

func (c *colorNode) color() int {
	if c.dist < 0 {
		return 0
	}
	return c.dist % 2
}

func (c *colorNode) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	n := ctx.N()
	for i := range inbox {
		switch inbox[i].Kind {
		case kindDist:
			if cand := inbox[i].Int0() + 1; c.dist == -1 || cand < c.dist {
				c.dist = cand
			}
		case kindColor:
			if inbox[i].Int0() == c.color() {
				c.conflict = true
			}
		}
	}
	switch {
	case round <= n:
		if c.dist != -1 && c.dist != c.lastSent {
			c.lastSent = c.dist
			bits := tagBits + congest.BitsForInt(c.dist)
			return congest.BroadcastWordsInto(ctx.Outbox(), c.mNbrs, kindDist, uint64(c.dist), 0, bits), false
		}
		return nil, false
	case round == n+1:
		bits := tagBits + congest.BitsForBool
		return congest.BroadcastWordsInto(ctx.Outbox(), c.mNbrs, kindColor, uint64(c.color()), 0, bits), false
	default:
		return nil, true
	}
}

// runColors executes the 2-colouring stage and returns, per node, whether it
// saw a monochromatic M-edge, read from the node slab. Each component's
// leader is the root of its M-BFS, at distance 0.
func runColors(r engine.Runner, mAdj [][]int, labels []int) ([]bool, error) {
	nodes := make([]colorNode, r.Size())
	factory := func(ctx *congest.Context) congest.Node {
		v := ctx.ID()
		nodes[v] = colorNode{mNbrs: mAdj[v], dist: -1, lastSent: -1}
		if labels[v] == v {
			nodes[v].dist = 0
		}
		return &nodes[v]
	}
	if _, err := r.RunStage(factory, nil, r.Size()+8); err != nil {
		return nil, err
	}
	conflicts := make([]bool, len(nodes))
	for v := range nodes {
		conflicts[v] = nodes[v].conflict
	}
	return conflicts, nil
}
