package mst

import (
	"runtime"
	"testing"

	"qdc/internal/dist/engine"
	"qdc/internal/graph"
)

// TestStageAllocsIndependentOfN gates what the fragment and MOE stages
// allocate on a reused runner: each builds its node programs in one slab
// with their inputs, so a stage allocates the same count of objects on a
// 64-node cycle as on a 1,024-node one. The cycle is split into two path
// fragments, so two leaders announce an edge whatever n: the announced
// edges are the MOE stage's result, and that slice grows with the number
// of fragments.
//
// A process's first GC cycle allocates runtime objects of its own, which
// count among the mallocs of whatever measurement it falls into, so the
// test runs one before measuring anything.
func TestStageAllocsIndependentOfN(t *testing.T) {
	runtime.GC()
	stages := []struct {
		name string
		run  func(r engine.Runner, treeAdj [][]int, frag []fragState) error
	}{
		{"fragment", func(r engine.Runner, treeAdj [][]int, _ []fragState) error {
			_, err := runFragments(r, treeAdj)
			return err
		}},
		{"MOE", func(r engine.Runner, _ [][]int, frag []fragState) error {
			_, err := runMOE(r, frag, exactKeys())
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
			r, err := engine.NewLocal(g, 128, 1)
			if err != nil {
				t.Fatal(err)
			}
			chosen := graph.NewEdgeSet()
			for v := 0; v+1 < n; v++ {
				if v+1 != n/2 {
					chosen.Add(v, v+1)
				}
			}
			treeAdj := treeAdjacency(g, chosen)
			// The fragment run also leaves r's network with a run behind
			// it, so every measured stage reuses its state.
			frag, err := runFragments(r, treeAdj)
			if err != nil {
				t.Fatal(err)
			}
			allocs = append(allocs, testing.AllocsPerRun(5, func() {
				if err := s.run(r, treeAdj, frag); err != nil {
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
