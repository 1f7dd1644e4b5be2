package verify

import (
	"runtime"
	"testing"

	"qdc/internal/dist/engine"
	"qdc/internal/graph"
)

// TestStageAllocsIndependentOfN gates what the label, colour and
// aggregation stages allocate on a reused runner: each builds its node
// programs in one slab with their inputs, and no node program allocates in
// Round, so a stage allocates the same count of objects on a 64-node cycle
// as on a 1,024-node one.
//
// A process's first GC cycle allocates runtime objects of its own, which
// count among the mallocs of whatever measurement it falls into, so the
// test runs one before measuring anything.
func TestStageAllocsIndependentOfN(t *testing.T) {
	runtime.GC()
	stages := []struct {
		name string
		run  func(r engine.Runner, g *graph.Graph, mAdj [][]int, labels []int) error
	}{
		{"label", func(r engine.Runner, _ *graph.Graph, mAdj [][]int, _ []int) error {
			_, err := runLabels(r, mAdj)
			return err
		}},
		{"colour", func(r engine.Runner, _ *graph.Graph, mAdj [][]int, labels []int) error {
			_, err := runColors(r, mAdj, labels)
			return err
		}},
		{"aggregation", func(r engine.Runner, g *graph.Graph, mAdj [][]int, labels []int) error {
			ok, err := runAggregate(r, g,
				localCounts(mAdj, labels, func(v int) bool { return len(mAdj[v]) == 2 }),
				func(a agg) bool { return a.OK && a.Leaders == 1 })
			if err == nil && !ok {
				t.Error("the aggregation stage finds no Hamiltonian cycle in a cycle")
			}
			return err
		}},
	}
	for _, s := range stages {
		var allocs []float64
		for _, n := range []int{64, 1024} {
			g, err := graph.Cycle(n)
			if err != nil {
				t.Fatal(err)
			}
			r, err := engine.NewLocal(g, 64, 1)
			if err != nil {
				t.Fatal(err)
			}
			mAdj := mAdjacency(g, graph.NewEdgeSetFrom(g.Edges()))
			// The label run also leaves r's network with a run behind it,
			// so every measured stage reuses its state.
			labels, err := runLabels(r, mAdj)
			if err != nil {
				t.Fatal(err)
			}
			allocs = append(allocs, testing.AllocsPerRun(5, func() {
				if err := s.run(r, g, mAdj, labels); err != nil {
					t.Fatal(err)
				}
			}))
		}
		t.Logf("%s stage on a reused runner: %.0f objects on Cycle(64), %.0f on Cycle(1024)", s.name, allocs[0], allocs[1])
		if allocs[0] != allocs[1] {
			t.Errorf("%s stage on a reused runner allocates %.0f objects on Cycle(64) and %.0f on Cycle(1024); want the same count",
				s.name, allocs[0], allocs[1])
		}
	}
}
