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

// Word-encoding pins for all three verify stages. A stage's full Result
// and its trace hash to one digest at Workers 0, 1 and 4. The digests were
// recorded while the programs still ran beside verbatim replicas of their
// pre-refactor boxed forms and both produced them, so any change to a
// stage's rounds, bits, outputs or traffic shows here.

// traceDigest runs factory on a fresh network and returns its Result and
// the SHA-256 of that Result and of its trace, one (round, From, To, Bits,
// Quantum) line per message.
func traceDigest(t *testing.T, topo congest.Topology, inputs map[int]any, factory congest.NodeFactory, workers, maxRounds int) (*congest.Result, string) {
	t.Helper()
	nw, err := congest.NewNetwork(topo, 64)
	if err != nil {
		t.Fatal(err)
	}
	nw.SetSeed(5)
	h := sha256.New()
	res, err := nw.Run(factory, congest.Options{
		MaxRounds: maxRounds,
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
func checkDigest(t *testing.T, name string, topo congest.Topology, inputs map[int]any, factory congest.NodeFactory, maxRounds int, want string) {
	t.Helper()
	for _, workers := range []int{0, 1, 4} {
		if res, got := traceDigest(t, topo, inputs, factory, workers, maxRounds); got != want {
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
	checkDigest(t, "labels", g, labelInputs(mAdj),
		func(*congest.Context) congest.Node { return &labelNode{} }, g.N()+8,
		"61368e77f47569824f23f58730f2321494ab073d4e8c7d886782af7e83a61cbf")
}

func TestColorStageMatchesBoxed(t *testing.T) {
	g, mAdj := stageFixture(t)
	// Leaders from a label run, pinned above.
	res, _ := traceDigest(t, g, labelInputs(mAdj), func(*congest.Context) congest.Node { return &labelNode{} }, 0, g.N()+8)
	inputs := make(map[int]any, g.N())
	for v := range mAdj {
		inputs[v] = colorInput{MNbrs: mAdj[v], IsLeader: res.Outputs[v].(int) == v}
	}
	checkDigest(t, "colors", g, inputs,
		func(*congest.Context) congest.Node { return &colorNode{} }, g.N()+8,
		"087d9f14c8927efde989c0ec2079db24f6225b7805b322420a87ca03b624d419")
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
	checkDigest(t, "aggregate", g, inputs,
		func(ctx *congest.Context) congest.Node { return newAggNode(ctx, decide) }, 0,
		"f4171d329c097d867dc206e71a367b897feec200dd8adab6b3f150929034dd25")
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
