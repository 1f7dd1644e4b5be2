package mst

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"qdc/internal/congest"
	"qdc/internal/dist/engine"
	"qdc/internal/graph"
)

// Word-encoding pins for both mst stages. Each stage runs through the
// function Run calls it with (runFragments, runMOE), so the factory that
// builds every node program with its input is pinned with the program. A
// stage's Result, every node's result and the stage's trace hash to one
// digest at Workers 0, 1 and 4. The programs then still ran beside
// verbatim replicas of their pre-refactor boxed forms, which gave the same
// Results, results and traces, so any change to a stage's rounds, bits,
// results or traffic shows here.

// digestRunner is the engine.Runner the pins run their stages on: a Local
// over a fresh network at one worker count that keeps the node programs
// the stage's factory built for the last stage and hashes that stage's
// trace, one (round, From, To, Bits, Quantum) line per message.
type digestRunner struct {
	*engine.Local
	h     hash.Hash
	nodes []congest.Node
	res   *congest.Result
}

func newDigestRunner(t *testing.T, topo congest.Topology, workers int) *digestRunner {
	t.Helper()
	l, err := engine.NewLocal(topo, 128, 9)
	if err != nil {
		t.Fatal(err)
	}
	l.SetWorkers(workers)
	return &digestRunner{Local: l}
}

// RunStage runs the stage on the Local, recording the node program the
// factory builds for every node and the stage's trace.
func (d *digestRunner) RunStage(factory congest.NodeFactory, inputs map[int]any, maxRounds int) (*congest.Result, error) {
	d.h, d.nodes = sha256.New(), make([]congest.Node, d.Size())
	record := func(ctx *congest.Context) congest.Node {
		d.nodes[ctx.ID()] = factory(ctx)
		return d.nodes[ctx.ID()]
	}
	var err error
	d.res, err = d.RunTraced(record, inputs, maxRounds, func(round int, m congest.Message) {
		fmt.Fprintln(d.h, round, m.From, m.To, m.Bits, m.Quantum)
	})
	return d.res, err
}

// digest returns the SHA-256 of the last stage's trace, of its Result's
// fields, named one by one, and of every node's result, read by value from
// the node's program.
func (d *digestRunner) digest(value func(v int, nd congest.Node) any) string {
	res := d.res
	fmt.Fprintf(d.h, "rounds %d, terminated %v, messages %d, bits %d, qubits %d, per round %v, max edge bits %d\n",
		res.Rounds, res.Terminated, res.TotalMessages, res.TotalBits, res.QuantumBits, res.PerRound, res.MaxEdgeBitsPerRound)
	for v, nd := range d.nodes {
		fmt.Fprintln(d.h, v, value(v, nd))
	}
	return hex.EncodeToString(d.h.Sum(nil))
}

// checkDigest requires the stage that run drives to hash to want at every
// worker count.
func checkDigest(t *testing.T, name string, topo congest.Topology, run func(engine.Runner) error,
	value func(v int, nd congest.Node) any, want string) {
	t.Helper()
	for _, workers := range []int{0, 1, 4} {
		d := newDigestRunner(t, topo, workers)
		if err := run(d); err != nil {
			t.Fatalf("%s workers=%d: %v", name, workers, err)
		}
		if got := d.digest(value); got != want {
			t.Errorf("%s workers=%d: digest %s, want %s (rounds %d, messages %d, bits %d)",
				name, workers, got, want, d.res.Rounds, d.res.TotalMessages, d.res.TotalBits)
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
	checkDigest(t, "fragments", g,
		func(r engine.Runner) error { _, err := runFragments(r, treeAdj); return err },
		func(_ int, nd congest.Node) any {
			f := nd.(*fragNode)
			return fragState{Label: f.label, Dist: f.dist, TreeNbrs: f.treeNbrs}
		},
		"588be3f5729f3debd84f4b6f89b0760497f3963a0377b894b79361bda6464379")
}

func TestMOEStageMatchesBoxed(t *testing.T) {
	g, treeAdj := moeFixture(t)
	// Fragment states from a labelling run, pinned above, feed the stage.
	frag, err := runFragments(newDigestRunner(t, g, 0), treeAdj)
	if err != nil {
		t.Fatal(err)
	}
	// A node's result is a fragment leader's announcement, (Has, U, V) of
	// its best candidate; other nodes announce nothing.
	announcement := func(v int, nd congest.Node) any {
		if m := nd.(*moeNode); m.st.Label == v {
			return fmt.Sprint(m.best.Has, m.best.U, m.best.V)
		}
		return nil
	}
	for _, c := range []struct {
		name   string
		keys   keyFunc
		digest string
	}{
		{"exact", exactKeys(), "9b6dfc2f3d64065ac1fc282c503d40d2aaeef9fc4da129818afe7c5b67eee4fd"},
		{"approx", approxKeys(2), "51dba9021e2ccd200d60a6abe8d46dd1932d82c9d3e7c68313f88377f80a028d"},
	} {
		checkDigest(t, "moe/"+c.name, g,
			func(r engine.Runner) error { _, err := runMOE(r, frag, c.keys); return err },
			announcement, c.digest)
	}
}
