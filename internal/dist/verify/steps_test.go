package verify

import (
	"math/rand"
	"testing"

	"qdc/internal/congest"
	"qdc/internal/dist/engine"
	"qdc/internal/graph"
)

// TestStageStepsFollowTraffic gates the vote to halt of the label and
// aggregation stages through Result.Steps, the Round calls a stage made.
// All n nodes step in round 1. After it a node steps when a message
// reaches it, at most TotalMessages steps, or while it stays awake with
// an empty inbox: in the label stage only node 0, which keeps the stage's
// clock, at most Rounds steps; in the aggregation stage no node, since
// every node sleeps between messages, ahead of the BFS wave too. Both are
// held to n + TotalMessages + Rounds, the bound the other stages use. M is
// every other edge, so its components are small, the label flood settles
// within a few rounds and the clock runs on alone for the rest of its n+1
// rounds.
func TestStageStepsFollowTraffic(t *testing.T) {
	cycle, err := graph.Cycle(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle64", cycle},
		{"path64", graph.Path(64)},
		{"grid8x8", graph.Grid(8, 8)},
		{"random40", graph.RandomConnectedGraph(40, 0.15, rand.New(rand.NewSource(3)))},
	} {
		n := f.g.N()
		m := graph.NewEdgeSet()
		for i, e := range f.g.Edges() {
			if i%2 == 0 {
				m.Add(e.U, e.V)
			}
		}
		r := newDigestRunner(t, f.g, 0)
		mAdj := mAdjacency(f.g, m)
		labels, err := runLabels(r, mAdj)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		checkSteps(t, f.name+" label", r.res, n+r.res.TotalMessages+r.res.Rounds)

		// The root sees every node's M-degree only once the convergecast
		// has covered the network.
		covered, err := runAggregate(r, f.g,
			localCounts(mAdj, labels, func(int) bool { return true }),
			func(a agg) bool { return a.Degree == 2*m.Len() })
		if err != nil || !covered {
			t.Fatalf("%s: aggregation summed every M-degree %v (%v); want true", f.name, covered, err)
		}
		checkSteps(t, f.name+" aggregation", r.res, n+r.res.TotalMessages+r.res.Rounds)
	}
}

// checkSteps requires a stage's Steps to stay within bound.
func checkSteps(t *testing.T, name string, res *congest.Result, bound int) {
	t.Helper()
	t.Logf("%s: %d steps over %d rounds and %d messages, bound %d", name, res.Steps, res.Rounds, res.TotalMessages, bound)
	if res.Steps > bound {
		t.Errorf("%s: %d steps, want at most %d", name, res.Steps, bound)
	}
}

// TestLabelStageKeepsItsClock pins the label stage's length to n+1 rounds
// when its labels settle early. On a star whose every edge is in M the
// labels settle in round 2, and the stage still reads 41 rounds, 117
// messages and 936 bits, as it did when every node stayed awake through
// round n: node 0 keeps the clock while every other node sleeps.
func TestLabelStageKeepsItsClock(t *testing.T) {
	g := graph.Star(40)
	r, err := engine.NewLocal(g, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := runLabels(r, mAdjacency(g, graph.NewEdgeSetFrom(g.Edges())))
	if err != nil {
		t.Fatal(err)
	}
	for v, l := range labels {
		if l != 0 {
			t.Errorf("node %d: label %d, want 0", v, l)
		}
	}
	if got, want := r.Stats(), (engine.Stats{Stages: 1, Rounds: 41, Messages: 117, Bits: 936}); got != want {
		t.Errorf("label stage on Star(40): %+v, want %+v", got, want)
	}
}

// TestAggregateOnDisconnectedRunnerNamesUnreachedNode pins what the
// aggregation stage does on a runner whose topology node 0 does not span:
// the nodes the BFS wave never reaches sleep through the run, which ends
// once node 0's component has its verdict, with the traffic of node 0's
// path alone, and runAggregate names the lowest node the wave never
// reached rather than returning a verdict over half the network.
func TestAggregateOnDisconnectedRunnerNamesUnreachedNode(t *testing.T) {
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}} {
		g.MustAddEdge(e[0], e[1], 1)
	}
	r, err := engine.NewLocal(g, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = runAggregate(r, g, func(int) agg { return agg{OK: true} }, func(a agg) bool { return a.OK })
	if want := "verify: aggregation wave never reached node 3"; err == nil || err.Error() != want {
		t.Fatalf("aggregation on two disjoint paths: error %v, want %s", err, want)
	}
	if got, want := r.Stats(), (engine.Stats{Stages: 1, Rounds: 7, Messages: 8, Bits: 31}); got != want {
		t.Errorf("aggregation on two disjoint paths: %+v, want %+v", got, want)
	}
}
