package disjointness

import (
	"math/rand"
	"testing"

	"qdc/internal/dist/engine"
	"qdc/internal/graph"
)

// TestStageStepsFollowTraffic gates the vote to halt of the pipelined
// protocol through Result.Steps, the Round calls the stage made. All n
// nodes step in round 1. After it a node steps when a message reaches it,
// at most TotalMessages steps, or while it stays awake with an empty
// inbox, which only node 0 does while it streams x, at most Rounds steps.
// The protocol runs on the path 0-1-…-(n−1), so each fixture gets the
// edges of that path it lacks; the protocol sends on no other edge.
func TestStageStepsFollowTraffic(t *testing.T) {
	cycle, err := graph.Cycle(64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const b = 300
	x, y := make([]int, b), make([]int, b)
	for i := range x {
		x[i], y[i] = rng.Intn(2), rng.Intn(2)
	}
	for _, f := range []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle64", cycle},
		{"path64", graph.Path(64)},
		{"grid8x8", graph.Grid(8, 8)},
		{"random40", graph.RandomConnectedGraph(40, 0.15, rng)},
	} {
		g := f.g
		for v := 0; v+1 < g.N(); v++ {
			if !g.HasEdge(v, v+1) {
				g.MustAddEdge(v, v+1, 1)
			}
		}
		for _, bandwidth := range []int{1, 32} {
			l, err := engine.NewLocal(g, bandwidth, 1)
			if err != nil {
				t.Fatal(err)
			}
			d := &digestRunner{Local: l}
			if _, err := RunOn(d, x, y); err != nil {
				t.Fatalf("%s B=%d: %v", f.name, bandwidth, err)
			}
			res, n := d.res, g.N()
			bound := n + res.TotalMessages + res.Rounds
			t.Logf("%s B=%d: %d steps over %d rounds and %d messages, bound %d",
				f.name, bandwidth, res.Steps, res.Rounds, res.TotalMessages, bound)
			if res.Steps > bound {
				t.Errorf("%s B=%d: %d steps, want at most %d", f.name, bandwidth, res.Steps, bound)
			}
		}
	}
}
