package verify

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

// Word-encoding pins for all three verify stages. Each stage runs through
// the function the verifiers call it with (runLabels, runColors,
// runAggregate), so the factory that builds every node program with its
// input is pinned with the program. A
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
	l, err := engine.NewLocal(topo, 64, 5)
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

func TestLabelStageMatchesBoxed(t *testing.T) {
	g, mAdj := stageFixture(t)
	checkDigest(t, "labels", g,
		func(r engine.Runner) error { _, err := runLabels(r, mAdj); return err },
		func(_ int, nd congest.Node) any { return nd.(*labelNode).label },
		"c86dbe7efefe1b342ae87022f270f2752c83f45ec16cad388558cc088ddef0e0")
}

func TestColorStageMatchesBoxed(t *testing.T) {
	g, mAdj := stageFixture(t)
	// Leaders from a label run, pinned above.
	labels, err := runLabels(newDigestRunner(t, g, 0), mAdj)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "colors", g,
		func(r engine.Runner) error { _, err := runColors(r, mAdj, labels); return err },
		func(_ int, nd congest.Node) any { return nd.(*colorNode).conflict },
		"733bd892699ae7f5de910ec692d8dcdcdfb586a995f373f170e03ca0635c1e6c")
}

func TestAggregateStageMatchesBoxed(t *testing.T) {
	g, mAdj := stageFixture(t)
	local := func(v int) agg {
		deg := len(mAdj[v])
		return agg{
			OK:        deg <= 2,
			Supported: boolToInt(deg > 0),
			Leaders:   boolToInt(v%5 == 0 && deg > 0),
			Degree:    deg,
		}
	}
	decide := func(a agg) bool { return a.OK && a.Leaders == 1 }
	checkDigest(t, "aggregate", g,
		func(r engine.Runner) error { _, err := runAggregate(r, local, decide); return err },
		func(_ int, nd congest.Node) any { return nd.(*aggNode).answer },
		"33d39daeeb75b5887c9bb5b6bc45f41848abafb93ebc38a6040810bce68b8182")
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
