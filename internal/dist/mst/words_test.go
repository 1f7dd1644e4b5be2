package mst

import (
	"math/rand"
	"reflect"
	"testing"

	"qdc/internal/congest"
	"qdc/internal/graph"
)

// Word-encoding equivalence pins for both mst stages: the migrated node
// programs must produce Results bit-for-bit identical to the pre-refactor
// boxed implementations — same rounds, bits, outputs and trace stream — on
// sequential and parallel merges alike. The boxed* nodes below are the
// pre-refactor programs, kept verbatim; fragMsg/nbrMsg/candMsg still exist
// as in-memory structs and double here as the boxed payloads they once were.

type boxedFragNode struct {
	treeNbrs []int
	label    int
	dist     int
	sent     fragMsg
}

func (f *boxedFragNode) Init(ctx *congest.Context) {
	in, _ := ctx.Input().(fragInput)
	f.treeNbrs = in.TreeNbrs
	f.label = ctx.ID()
	f.dist = 0
	f.sent = fragMsg{Label: -1}
}

func (f *boxedFragNode) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	for _, m := range inbox {
		if p, ok := m.Payload.(fragMsg); ok {
			if p.Label < f.label || (p.Label == f.label && p.Dist+1 < f.dist) {
				f.label = p.Label
				f.dist = p.Dist + 1
			}
		}
	}
	n := ctx.N()
	if round > n {
		ctx.SetOutput(fragState{Label: f.label, Dist: f.dist, TreeNbrs: f.treeNbrs})
		return nil, true
	}
	if cur := (fragMsg{Label: f.label, Dist: f.dist}); cur != f.sent {
		f.sent = cur
		bits := tagBits + congest.BitsForID(n) + congest.BitsForInt(f.dist)
		return congest.Broadcast(f.treeNbrs, cur, bits), false
	}
	return nil, false
}

type boxedMoeNode struct {
	st   fragState
	keys keyFunc

	parent   int
	children int
	best     candMsg
	received int
	oriented bool
	finished bool
}

func (m *boxedMoeNode) Init(*congest.Context) {}

func (m *boxedMoeNode) candBits(n int, c candMsg) int {
	bits := tagBits + congest.BitsForBool
	if c.Has {
		bits += 2*congest.BitsForID(n) + m.keys.keyBits(c.Key)
	}
	return bits
}

func (m *boxedMoeNode) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	n := ctx.N()
	if round == 1 {
		bits := tagBits + congest.BitsForID(n) + congest.BitsForInt(m.st.Dist)
		return congest.BroadcastAll(ctx, nbrMsg{Label: m.st.Label, Dist: m.st.Dist}, bits), false
	}

	for _, msg := range inbox {
		switch p := msg.Payload.(type) {
		case nbrMsg:
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
		case candMsg:
			m.received++
			if better(p, m.best) {
				m.best = p
			}
		}
	}

	if round == 2 {
		m.oriented = true
	}

	var out []congest.Message
	if m.oriented && !m.finished && m.received == m.children {
		m.finished = true
		if m.st.Label == ctx.ID() {
			ctx.SetOutput(moeOutput{Has: m.best.Has, U: m.best.U, V: m.best.V})
		} else {
			out = append(out, congest.NewMessage(m.parent, m.best, m.candBits(n, m.best)))
		}
	}
	return out, m.finished
}

// traceEv is the accounting-visible view of one traced message. The payload
// representation intentionally differs between the two programs, so Kind,
// the words and Payload are excluded from the comparison.
type traceEv struct {
	Round, From, To, Bits int
	Quantum               bool
}

func runStageTraced(t *testing.T, topo congest.Topology, inputs map[int]any, factory congest.NodeFactory, workers int) (*congest.Result, []traceEv) {
	t.Helper()
	nw, err := congest.NewNetwork(topo, 128)
	if err != nil {
		t.Fatal(err)
	}
	nw.SetSeed(9)
	var evs []traceEv
	res, err := nw.Run(factory, congest.Options{
		MaxRounds: topo.N() + 8,
		Inputs:    inputs,
		Workers:   workers,
		Trace: func(round int, m congest.Message) {
			evs = append(evs, traceEv{round, m.From, m.To, m.Bits, m.Quantum})
		},
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return res, evs
}

func comparePrograms(t *testing.T, name string, topo congest.Topology, inputs map[int]any, word, boxed congest.NodeFactory) {
	t.Helper()
	for _, workers := range []int{0, 1, 4} {
		wordRes, wordEvs := runStageTraced(t, topo, inputs, word, workers)
		boxedRes, boxedEvs := runStageTraced(t, topo, inputs, boxed, workers)
		if !reflect.DeepEqual(wordRes, boxedRes) {
			t.Errorf("%s workers=%d: results differ\n word:  %+v\n boxed: %+v", name, workers, wordRes, boxedRes)
		}
		if !reflect.DeepEqual(wordEvs, boxedEvs) {
			t.Errorf("%s workers=%d: trace streams differ (%d vs %d events)", name, workers, len(wordEvs), len(boxedEvs))
		}
	}
}

// moeFixture builds a weighted connected graph plus a mid-Borůvka forest of
// chosen edges: a greedy union-find spanning forest with every fourth tree
// edge dropped, so several multi-node fragments coexist with singletons and
// both stages carry non-trivial traffic.
func moeFixture(t *testing.T) (*graph.Graph, [][]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	base := graph.RandomConnectedGraph(22, 0.18, rng)
	g, err := graph.AssignRandomWeights(base, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	chosen := graph.NewEdgeSet()
	accepted := 0
	for _, e := range g.Edges() {
		ru, rv := find(e.U), find(e.V)
		if ru == rv {
			continue
		}
		parent[ru] = rv
		accepted++
		if accepted%4 == 0 {
			continue // dropped: leaves a fragment boundary here
		}
		chosen.Add(e.U, e.V)
	}
	return g, treeAdjacency(g, chosen)
}

func TestFragmentStageMatchesBoxed(t *testing.T) {
	g, treeAdj := moeFixture(t)
	inputs := make(map[int]any, g.N())
	for v := range treeAdj {
		inputs[v] = fragInput{TreeNbrs: treeAdj[v]}
	}
	comparePrograms(t, "fragments", g, inputs,
		func(*congest.Context) congest.Node { return &fragNode{} },
		func(*congest.Context) congest.Node { return &boxedFragNode{} })
}

func TestMOEStageMatchesBoxed(t *testing.T) {
	g, treeAdj := moeFixture(t)
	fragInputs := make(map[int]any, g.N())
	for v := range treeAdj {
		fragInputs[v] = fragInput{TreeNbrs: treeAdj[v]}
	}
	// Fragment states from a boxed labelling run feed both moe programs.
	res, _ := runStageTraced(t, g, fragInputs, func(*congest.Context) congest.Node { return &boxedFragNode{} }, 0)
	moeInputs := make(map[int]any, g.N())
	for v := 0; v < g.N(); v++ {
		moeInputs[v] = res.Outputs[v]
	}
	for name, keys := range map[string]keyFunc{"exact": exactKeys(), "approx": approxKeys(2)} {
		word := func(ctx *congest.Context) congest.Node {
			st, _ := ctx.Input().(fragState)
			return &moeNode{st: st, keys: keys, parent: -1}
		}
		boxed := func(ctx *congest.Context) congest.Node {
			st, _ := ctx.Input().(fragState)
			return &boxedMoeNode{st: st, keys: keys, parent: -1}
		}
		comparePrograms(t, "moe/"+name, g, moeInputs, word, boxed)
	}
}
