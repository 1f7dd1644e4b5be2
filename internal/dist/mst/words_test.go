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

// Word-encoding pins for both mst stages. A stage's full Result and its
// trace hash to one digest at Workers 0, 1 and 4. The digests were
// recorded while the programs still ran beside verbatim replicas of their
// pre-refactor boxed forms and both produced them, so any change to a
// stage's rounds, bits, outputs or traffic shows here.

// traceDigest runs factory on a fresh network and returns its Result and
// the SHA-256 of that Result and of its trace, one (round, From, To, Bits,
// Quantum) line per message.
func traceDigest(t *testing.T, topo congest.Topology, inputs map[int]any, factory congest.NodeFactory, workers int) (*congest.Result, string) {
	t.Helper()
	nw, err := congest.NewNetwork(topo, 128)
	if err != nil {
		t.Fatal(err)
	}
	nw.SetSeed(9)
	h := sha256.New()
	res, err := nw.Run(factory, congest.Options{
		MaxRounds: topo.N() + 8,
		Inputs:    inputs,
		Workers:   workers,
		Trace:     func(round int, m congest.Message) { fmt.Fprintln(h, round, m.From, m.To, m.Bits, m.Quantum) },
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	fmt.Fprintf(h, "%#v\n", *res)
	return res, hex.EncodeToString(h.Sum(nil))
}

// checkDigest requires the stage to hash to want at every worker count.
func checkDigest(t *testing.T, name string, topo congest.Topology, inputs map[int]any, factory congest.NodeFactory, want string) {
	t.Helper()
	for _, workers := range []int{0, 1, 4} {
		if res, got := traceDigest(t, topo, inputs, factory, workers); got != want {
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
	checkDigest(t, "fragments", g, fragInputs(treeAdj),
		func(*congest.Context) congest.Node { return &fragNode{} },
		"225144a18b1627de3582b434de657f34b091be38f1494ff8e91f35adad1d9eaf")
}

func TestMOEStageMatchesBoxed(t *testing.T) {
	g, treeAdj := moeFixture(t)
	// Fragment states from a labelling run, pinned above, feed the stage.
	res, _ := traceDigest(t, g, fragInputs(treeAdj), func(*congest.Context) congest.Node { return &fragNode{} }, 0)
	moeInputs := make(map[int]any, g.N())
	for v := 0; v < g.N(); v++ {
		moeInputs[v] = res.Outputs[v]
	}
	for _, c := range []struct {
		name   string
		keys   keyFunc
		digest string
	}{
		{"exact", exactKeys(), "40fd3f3a1c2293a10036a1ce68bd15e3af365977f0b14634a41bc694f2073649"},
		{"approx", approxKeys(2), "576cc46f2105cc2e064674470c501e0993b93105072fb549b8486e20fb18eb83"},
	} {
		checkDigest(t, "moe/"+c.name, g, moeInputs, func(ctx *congest.Context) congest.Node {
			st, _ := ctx.Input().(fragState)
			return &moeNode{st: st, keys: c.keys, parent: -1}
		}, c.digest)
	}
}
