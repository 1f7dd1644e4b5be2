package mst

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"qdc/internal/congest"
	"qdc/internal/graph"
)

// Word-encoding pins for both mst stages. A stage's Result, every node's
// result and the stage's trace hash to one digest at Workers 0, 1 and 4.
// The programs then still ran beside verbatim replicas of their
// pre-refactor boxed forms, which gave the same Results, results and
// traces, so any change to a stage's rounds, bits, results or traffic
// shows here.

// stage carves one run's node programs of a stage from a fresh slab of n:
// it returns their factory and value, which reads node v's result from the
// slab once the run has returned.
type stage func(n int) (factory congest.NodeFactory, value func(v int) any)

func fragStage(n int) (congest.NodeFactory, func(int) any) {
	nodes := make([]fragNode, n)
	return func(ctx *congest.Context) congest.Node { return &nodes[ctx.ID()] },
		func(v int) any {
			f := &nodes[v]
			return fragState{Label: f.label, Dist: f.dist, TreeNbrs: f.treeNbrs}
		}
}

// moeStage's result is a fragment leader's announcement, (Has, U, V) of
// its best candidate; other nodes announce nothing.
func moeStage(keys keyFunc) stage {
	return func(n int) (congest.NodeFactory, func(int) any) {
		nodes := make([]moeNode, n)
		return func(ctx *congest.Context) congest.Node {
				st, _ := ctx.Input().(fragState)
				nodes[ctx.ID()] = moeNode{st: st, keys: keys, parent: -1}
				return &nodes[ctx.ID()]
			},
			func(v int) any {
				if m := &nodes[v]; m.st.Label == v {
					return fmt.Sprint(m.best.Has, m.best.U, m.best.V)
				}
				return nil
			}
	}
}

// traceDigest runs s on a fresh network and returns its Result, the value
// reader of its slab and the SHA-256 of its trace, one (round, From, To,
// Bits, Quantum) line per message, of the Result's fields, named one by
// one, and of every node's result.
func traceDigest(t *testing.T, topo congest.Topology, inputs map[int]any, s stage, workers int) (*congest.Result, func(v int) any, string) {
	t.Helper()
	nw, err := congest.NewNetwork(topo, 128)
	if err != nil {
		t.Fatal(err)
	}
	nw.SetSeed(9)
	h := sha256.New()
	factory, value := s(topo.N())
	res, err := nw.Run(factory, congest.Options{
		MaxRounds: topo.N() + 8,
		Inputs:    inputs,
		Workers:   workers,
		Trace:     func(round int, m congest.Message) { fmt.Fprintln(h, round, m.From, m.To, m.Bits, m.Quantum) },
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	fmt.Fprintf(h, "rounds %d, terminated %v, messages %d, bits %d, qubits %d, per round %v, max edge bits %d\n",
		res.Rounds, res.Terminated, res.TotalMessages, res.TotalBits, res.QuantumBits, res.PerRound, res.MaxEdgeBitsPerRound)
	for v := range topo.N() {
		fmt.Fprintln(h, v, value(v))
	}
	return res, value, hex.EncodeToString(h.Sum(nil))
}

// checkDigest requires the stage to hash to want at every worker count.
func checkDigest(t *testing.T, name string, topo congest.Topology, inputs map[int]any, s stage, want string) {
	t.Helper()
	for _, workers := range []int{0, 1, 4} {
		if res, _, got := traceDigest(t, topo, inputs, s, workers); got != want {
			t.Errorf("%s workers=%d: digest %s, want %s (rounds %d, messages %d, bits %d)",
				name, workers, got, want, res.Rounds, res.TotalMessages, res.TotalBits)
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

// fragInputs are the fragment stage's inputs on the fixture's forest.
func fragInputs(treeAdj [][]int) map[int]any {
	inputs := make(map[int]any, len(treeAdj))
	for v := range treeAdj {
		inputs[v] = fragInput{TreeNbrs: treeAdj[v]}
	}
	return inputs
}

func TestFragmentStageMatchesBoxed(t *testing.T) {
	g, treeAdj := moeFixture(t)
	checkDigest(t, "fragments", g, fragInputs(treeAdj), fragStage,
		"588be3f5729f3debd84f4b6f89b0760497f3963a0377b894b79361bda6464379")
}

func TestMOEStageMatchesBoxed(t *testing.T) {
	g, treeAdj := moeFixture(t)
	// Fragment states from a labelling run, pinned above, feed the stage.
	_, frag, _ := traceDigest(t, g, fragInputs(treeAdj), fragStage, 0)
	moeInputs := make(map[int]any, g.N())
	for v := 0; v < g.N(); v++ {
		moeInputs[v] = frag(v)
	}
	for _, c := range []struct {
		name   string
		keys   keyFunc
		digest string
	}{
		{"exact", exactKeys(), "9b6dfc2f3d64065ac1fc282c503d40d2aaeef9fc4da129818afe7c5b67eee4fd"},
		{"approx", approxKeys(2), "51dba9021e2ccd200d60a6abe8d46dd1932d82c9d3e7c68313f88377f80a028d"},
	} {
		checkDigest(t, "moe/"+c.name, g, moeInputs, moeStage(c.keys), c.digest)
	}
}
