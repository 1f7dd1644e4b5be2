package verify

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"qdc/internal/congest"
	"qdc/internal/graph"
)

// Word-encoding pins for all three verify stages. A stage's Result, every
// node's result and the stage's trace hash to one digest at Workers 0, 1
// and 4. The programs then still ran beside verbatim replicas of their
// pre-refactor boxed forms, which gave the same Results, results and
// traces, so any change to a stage's rounds, bits, results or traffic
// shows here.

// stage carves one run's node programs of a stage from a fresh slab of n:
// it returns their factory and value, which reads node v's result from the
// slab once the run has returned.
type stage func(n int) (factory congest.NodeFactory, value func(v int) any)

func labelStage(n int) (congest.NodeFactory, func(int) any) {
	nodes := make([]labelNode, n)
	return func(ctx *congest.Context) congest.Node { return &nodes[ctx.ID()] },
		func(v int) any { return nodes[v].label }
}

func colorStage(n int) (congest.NodeFactory, func(int) any) {
	nodes := make([]colorNode, n)
	return func(ctx *congest.Context) congest.Node { return &nodes[ctx.ID()] },
		func(v int) any { return nodes[v].conflict }
}

func aggStage(decide func(agg) bool) stage {
	return func(n int) (congest.NodeFactory, func(int) any) {
		nodes := make([]aggNode, n)
		return func(ctx *congest.Context) congest.Node {
				nodes[ctx.ID()].decide = decide
				return &nodes[ctx.ID()]
			},
			func(v int) any { return nodes[v].answer }
	}
}

// traceDigest runs s on a fresh network and returns its Result, the value
// reader of its slab and the SHA-256 of its trace, one (round, From, To,
// Bits, Quantum) line per message, of the Result's fields, named one by
// one, and of every node's result.
func traceDigest(t *testing.T, topo congest.Topology, inputs map[int]any, s stage, workers, maxRounds int) (*congest.Result, func(v int) any, string) {
	t.Helper()
	nw, err := congest.NewNetwork(topo, 64)
	if err != nil {
		t.Fatal(err)
	}
	nw.SetSeed(5)
	h := sha256.New()
	factory, value := s(topo.N())
	res, err := nw.Run(factory, congest.Options{
		MaxRounds: maxRounds,
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
func checkDigest(t *testing.T, name string, topo congest.Topology, inputs map[int]any, s stage, maxRounds int, want string) {
	t.Helper()
	for _, workers := range []int{0, 1, 4} {
		if res, _, got := traceDigest(t, topo, inputs, s, workers, maxRounds); got != want {
			t.Errorf("%s workers=%d: digest %s, want %s (rounds %d, messages %d, bits %d)",
				name, workers, got, want, res.Rounds, res.TotalMessages, res.TotalBits)
		}
	}
}

// stageFixture builds a graph plus a subnetwork M with several components,
// one of them an odd cycle, so the label flood, the parity colouring and the
// conflict exchange all carry non-trivial traffic.
func stageFixture(t *testing.T) (*graph.Graph, [][]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	g := graph.RandomConnectedGraph(26, 0.12, rng)
	m := graph.NewEdgeSet()
	edges := g.Edges()
	for i, e := range edges {
		if i%2 == 0 {
			m.Add(e.U, e.V)
		}
	}
	return g, mAdjacency(g, m)
}

// labelInputs are the label stage's inputs on the fixture's subnetwork.
func labelInputs(mAdj [][]int) map[int]any {
	inputs := make(map[int]any, len(mAdj))
	for v := range mAdj {
		inputs[v] = labelInput{MNbrs: mAdj[v]}
	}
	return inputs
}

func TestLabelStageMatchesBoxed(t *testing.T) {
	g, mAdj := stageFixture(t)
	checkDigest(t, "labels", g, labelInputs(mAdj), labelStage, g.N()+8,
		"c86dbe7efefe1b342ae87022f270f2752c83f45ec16cad388558cc088ddef0e0")
}

func TestColorStageMatchesBoxed(t *testing.T) {
	g, mAdj := stageFixture(t)
	// Leaders from a label run, pinned above.
	_, label, _ := traceDigest(t, g, labelInputs(mAdj), labelStage, 0, g.N()+8)
	inputs := make(map[int]any, g.N())
	for v := range mAdj {
		inputs[v] = colorInput{MNbrs: mAdj[v], IsLeader: label(v) == v}
	}
	checkDigest(t, "colors", g, inputs, colorStage, g.N()+8,
		"733bd892699ae7f5de910ec692d8dcdcdfb586a995f373f170e03ca0635c1e6c")
}

func TestAggregateStageMatchesBoxed(t *testing.T) {
	g, mAdj := stageFixture(t)
	inputs := make(map[int]any, g.N())
	for v := range mAdj {
		deg := len(mAdj[v])
		inputs[v] = aggInput{Local: agg{
			OK:        deg <= 2,
			Supported: boolToInt(deg > 0),
			Leaders:   boolToInt(v%5 == 0 && deg > 0),
			Degree:    deg,
		}}
	}
	decide := func(a agg) bool { return a.OK && a.Leaders == 1 }
	checkDigest(t, "aggregate", g, inputs, aggStage(decide), 0,
		"33d39daeeb75b5887c9bb5b6bc45f41848abafb93ebc38a6040810bce68b8182")
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
