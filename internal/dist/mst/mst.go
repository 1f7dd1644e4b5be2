// Package mst implements distributed minimum spanning tree construction in
// the CONGEST model, executed through the engine.Runner abstraction: a
// Borůvka-style algorithm in which fragments repeatedly and simultaneously
// add their minimum-weight outgoing edges, with all coordination done by
// O(log n + log W)-bit messages.
//
// The α-approximate variant (Config.Alpha > 1) is the rounding technique the
// paper's Theorem 3.8 / Figure 3 discussion is about: every weight is
// rounded up to the nearest power of α before the algorithm runs, so
// messages carry a small weight-class index instead of a full weight word
// and the resulting tree weighs at most α times the optimum.
package mst

import (
	"errors"
	"fmt"
	"math"

	"qdc/internal/congest"
	"qdc/internal/dist/engine"
	"qdc/internal/graph"
)

// Errors reported by Run.
var (
	// ErrBadInput reports a nil runner or graph.
	ErrBadInput = errors.New("mst: nil runner or graph")
	// ErrBadAlpha reports an approximation factor below 1.
	ErrBadAlpha = errors.New("mst: alpha must be 0 (exact) or >= 1")
	// ErrBandwidth reports a runner whose per-round budget cannot carry one
	// outgoing-edge candidate message.
	ErrBandwidth = errors.New("mst: bandwidth too small")
)

// Config selects between the exact and the α-approximate algorithm.
type Config struct {
	// Alpha is the approximation factor. Zero or one selects the exact
	// algorithm; a value above one rounds every weight up to the nearest
	// power of Alpha, which guarantees a tree of weight at most Alpha times
	// the optimum while shrinking every weight message to a class index.
	Alpha float64
}

// Result is the outcome of one distributed MST construction.
type Result struct {
	// Tree is the constructed spanning forest, with original weights.
	Tree []graph.Edge
	// OriginalWeight is the total original weight of Tree (the quantity the
	// α-approximation guarantee is stated about).
	OriginalWeight float64
	// Stats is the communication cost of the construction on its runner.
	Stats engine.Stats
}

// keyFunc maps an edge weight to the comparison key the algorithm uses and
// prices the transmission of one key.
type keyFunc struct {
	key     func(w float64) float64
	keyBits func(key float64) int
}

func exactKeys() keyFunc {
	return keyFunc{
		key:     func(w float64) float64 { return w },
		keyBits: func(float64) int { return congest.BitsForWeight },
	}
}

// approxKeys rounds weights up to powers of alpha: the key is the class
// index ⌈log_α w⌉, an O(log log_α W)-bit value (plus a sign bit — weights
// below 1 are legal and map to negative classes; collapsing them would
// break the α-approximation guarantee).
func approxKeys(alpha float64) keyFunc {
	return keyFunc{
		key: func(w float64) float64 {
			return math.Ceil(math.Log(w)/math.Log(alpha) - 1e-9)
		},
		keyBits: func(key float64) int {
			return congest.BitsForInt(int(key)) + congest.BitsForBool
		},
	}
}

// Run constructs an MST (or spanning forest, if g is disconnected) of g on
// the given runner. Phases of the Borůvka schedule are orchestrated from the
// caller's side, but every phase is a genuine CONGEST execution: fragment
// labels and leader distances propagate along chosen edges, outgoing-edge
// candidates are convergecast along fragment trees, and only the fragment
// leaders announce merges.
func Run(r engine.Runner, g *graph.Graph, cfg Config) (*Result, error) {
	if r == nil || g == nil {
		return nil, ErrBadInput
	}
	if g.N() != r.Size() {
		return nil, fmt.Errorf("%w: graph has %d nodes but runner has %d", ErrBadInput, g.N(), r.Size())
	}
	if cfg.Alpha != 0 && cfg.Alpha < 1 {
		return nil, fmt.Errorf("%w: got %g", ErrBadAlpha, cfg.Alpha)
	}
	keys := exactKeys()
	if cfg.Alpha > 1 {
		keys = approxKeys(cfg.Alpha)
	}
	if need := requiredBandwidth(g, keys); r.Bandwidth() < need {
		return nil, fmt.Errorf("%w: candidate messages need %d bits per round but bandwidth is %d",
			ErrBandwidth, need, r.Bandwidth())
	}

	before := r.Stats()
	n := g.N()
	chosen := graph.NewEdgeSet()
	// Fragments at least halve every phase, so ⌈log₂ n⌉ phases suffice.
	maxPhases := 2
	for m := 1; m < n; m *= 2 {
		maxPhases++
	}

	for phase := 0; phase < maxPhases; phase++ {
		frag, err := runFragments(r, treeAdjacency(g, chosen))
		if err != nil {
			return nil, err
		}
		moes, err := runMOE(r, frag, keys)
		if err != nil {
			return nil, err
		}
		added := false
		for _, e := range moes {
			if !chosen.Contains(e[0], e[1]) {
				if _, ok := g.Weight(e[0], e[1]); !ok {
					return nil, fmt.Errorf("mst: leader announced edge (%d,%d) outside the graph", e[0], e[1])
				}
				chosen.Add(e[0], e[1])
				added = true
			}
		}
		if !added {
			break
		}
	}

	res := &Result{Stats: r.Stats().Sub(before)}
	for _, e := range g.Edges() {
		if chosen.Contains(e.U, e.V) {
			res.Tree = append(res.Tree, e)
			res.OriginalWeight += e.Weight
		}
	}
	return res, nil
}

// requiredBandwidth returns the bit budget the largest message of the
// algorithm needs on g: a convergecast candidate carrying two IDs and the
// widest edge key (exact keys are full weight words, class keys a few bits).
func requiredBandwidth(g *graph.Graph, keys keyFunc) int {
	n := g.N()
	maxKey := 1
	for _, e := range g.Edges() {
		if b := keys.keyBits(keys.key(e.Weight)); b > maxKey {
			maxKey = b
		}
	}
	cand := tagBits + congest.BitsForBool + 2*congest.BitsForID(n) + maxKey
	frag := tagBits + congest.BitsForID(n) + congest.BitsForInt(n)
	if frag > cand {
		return frag
	}
	return cand
}

// treeAdjacency returns, per node, its neighbours along the chosen edges.
func treeAdjacency(g *graph.Graph, chosen *graph.EdgeSet) [][]int {
	adj := make([][]int, g.N())
	for _, p := range chosen.Pairs() {
		adj[p[0]] = append(adj[p[0]], p[1])
		adj[p[1]] = append(adj[p[1]], p[0])
	}
	return adj
}

const tagBits = engine.TagBits

// Message kinds of the two stages. Every kind charges a type tag plus its
// fields' bits; the golden digests in words_test.go hold the accounting.
const (
	// kindFrag propagates (label, distance-from-leader): W0 label, W1 dist.
	kindFrag uint8 = 1
	// kindNbr announces a node's fragment label and leader distance:
	// W0 label, W1 dist.
	kindNbr uint8 = 2
	// kindCand convergecasts an outgoing-edge candidate: W0 packs (U,V),
	// W1 is the comparison key as float64 bits.
	kindCand uint8 = 3
	// kindCandNone is an empty candidate (the Has=false case); both words
	// are zero and charge no ID/key bits.
	kindCandNone uint8 = 4
)

// fragState is a node's view of its fragment after the labelling stage.
type fragState struct {
	Label    int
	Dist     int
	TreeNbrs []int
}

// fragMsg propagates (label, distance-from-leader) along chosen edges.
type fragMsg struct{ Label, Dist int }

// fragNode floods the minimum node ID of its fragment together with the
// tree distance to that leader, as kindFrag word messages. Chosen edges
// always form a forest, so the distance converges to the unique tree
// distance within n rounds. runFragments reads label and dist from the
// node slab: a node votes done only in round n+1, once nothing can change
// them.
type fragNode struct {
	treeNbrs []int
	label    int
	dist     int
	sent     fragMsg
}

func (f *fragNode) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	for i := range inbox {
		if inbox[i].Kind == kindFrag {
			p := fragMsg{Label: inbox[i].Int0(), Dist: inbox[i].Int1()}
			if p.Label < f.label || (p.Label == f.label && p.Dist+1 < f.dist) {
				f.label = p.Label
				f.dist = p.Dist + 1
			}
		}
	}
	n := ctx.N()
	if round > n {
		return nil, true
	}
	if cur := (fragMsg{Label: f.label, Dist: f.dist}); cur != f.sent {
		f.sent = cur
		bits := tagBits + congest.BitsForID(n) + congest.BitsForInt(f.dist)
		return congest.BroadcastWordsInto(ctx.Outbox(), f.treeNbrs, kindFrag, uint64(cur.Label), uint64(cur.Dist), bits), false
	}
	return nil, false
}

// runFragments executes the fragment-labelling stage and returns every
// node's fragment state, read from the node slab.
func runFragments(r engine.Runner, treeAdj [][]int) ([]fragState, error) {
	nodes := make([]fragNode, r.Size())
	factory := func(ctx *congest.Context) congest.Node {
		v := ctx.ID()
		nodes[v] = fragNode{treeNbrs: treeAdj[v], label: v, sent: fragMsg{Label: -1}}
		return &nodes[v]
	}
	if _, err := r.RunStage(factory, nil, r.Size()+8); err != nil {
		return nil, err
	}
	frag := make([]fragState, len(nodes))
	for v, f := range nodes {
		frag[v] = fragState{Label: f.label, Dist: f.dist, TreeNbrs: f.treeNbrs}
	}
	return frag, nil
}

// In-memory values of the minimum-outgoing-edge stage. On the wire they
// travel word-encoded (kindNbr, kindCand/kindCandNone); the structs remain
// the comparison and state domain of the node program.
type (
	// nbrMsg announces a node's fragment label and leader distance to all
	// its neighbours (the distance only matters to tree neighbours).
	nbrMsg struct{ Label, Dist int }
	// candMsg convergecasts the best outgoing-edge candidate of a subtree.
	candMsg struct {
		Has  bool
		U, V int
		Key  float64
	}
)

// encodeCand splits a candidate into its message kind and payload words; an
// empty candidate is its own kind so it carries (and charges) no fields.
func encodeCand(c candMsg) (kind uint8, w0, w1 uint64) {
	if !c.Has {
		return kindCandNone, 0, 0
	}
	return kindCand, congest.PackIDs(c.U, c.V), math.Float64bits(c.Key)
}

func decodeCand(kind uint8, w0, w1 uint64) candMsg {
	if kind != kindCand {
		return candMsg{}
	}
	u, v := congest.UnpackIDs(w0)
	return candMsg{Has: true, U: u, V: v, Key: math.Float64frombits(w1)}
}

// better reports whether a beats b under the strict total edge order
// (key, u, v) — the tie-break that guarantees simultaneous fragment merges
// never close a cycle.
func better(a, b candMsg) bool {
	if !a.Has || !b.Has {
		return a.Has && !b.Has
	}
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// moeNode finds its fragment's minimum outgoing edge: round 1 exchanges
// fragment labels and leader distances with every neighbour, round 2 fixes
// the fragment-tree orientation (the parent is the unique tree neighbour
// closer to the leader) together with the best local outgoing edge, and an
// event-driven convergecast then delivers the fragment-wide minimum to the
// leader, whose best is its announcement. A node votes done only once it
// has finished, after its last candidate arrived, so runMOE reads each
// leader's best from the node slab.
type moeNode struct {
	st   fragState
	keys keyFunc

	parent   int
	children int
	best     candMsg
	received int
	oriented bool
	finished bool
}

func (m *moeNode) candBits(n int, c candMsg) int {
	bits := tagBits + congest.BitsForBool
	if c.Has {
		bits += 2*congest.BitsForID(n) + m.keys.keyBits(c.Key)
	}
	return bits
}

func (m *moeNode) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	n := ctx.N()
	if round == 1 {
		bits := tagBits + congest.BitsForID(n) + congest.BitsForInt(m.st.Dist)
		return congest.BroadcastAllWordsInto(ctx.Outbox(), ctx, kindNbr, uint64(m.st.Label), uint64(m.st.Dist), bits), false
	}

	for i := range inbox {
		msg := &inbox[i]
		switch msg.Kind {
		case kindNbr:
			p := nbrMsg{Label: msg.Int0(), Dist: msg.Int1()}
			if p.Label != m.st.Label {
				if w, ok := ctx.EdgeWeight(msg.From); ok {
					u, v := ctx.ID(), msg.From
					if u > v {
						u, v = v, u
					}
					cand := candMsg{Has: true, U: u, V: v, Key: m.keys.key(w)}
					if better(cand, m.best) {
						m.best = cand
					}
				}
			} else if isTreeNbr(m.st.TreeNbrs, msg.From) {
				switch p.Dist {
				case m.st.Dist - 1:
					m.parent = msg.From
				case m.st.Dist + 1:
					m.children++
				}
			}
		case kindCand, kindCandNone:
			m.received++
			if p := decodeCand(msg.Kind, msg.W0, msg.W1); better(p, m.best) {
				m.best = p
			}
		}
	}

	if round == 2 {
		m.oriented = true
	}

	out := ctx.Outbox()
	if m.oriented && !m.finished && m.received == m.children {
		m.finished = true
		if m.st.Label != ctx.ID() {
			kind, w0, w1 := encodeCand(m.best)
			out = congest.AppendWordMessage(out, m.parent, kind, w0, w1, m.candBits(n, m.best))
		}
	}
	return out, m.finished
}

func isTreeNbr(nbrs []int, v int) bool {
	for _, u := range nbrs {
		if u == v {
			return true
		}
	}
	return false
}

// runMOE executes one minimum-outgoing-edge stage and returns the edges the
// fragment leaders announced, read from the node slab.
func runMOE(r engine.Runner, frag []fragState, keys keyFunc) ([][2]int, error) {
	n := r.Size()
	nodes := make([]moeNode, n)
	factory := func(ctx *congest.Context) congest.Node {
		nodes[ctx.ID()] = moeNode{st: frag[ctx.ID()], keys: keys, parent: -1}
		return &nodes[ctx.ID()]
	}
	if _, err := r.RunStage(factory, nil, n+8); err != nil {
		return nil, err
	}
	var moes [][2]int
	for v, m := range nodes {
		if m.st.Label == v && m.best.Has {
			moes = append(moes, [2]int{m.best.U, m.best.V})
		}
	}
	return moes, nil
}
