package congest

import (
	"fmt"
	"testing"

	"qdc/internal/graph"
)

// measureRunAllocs returns the average heap allocations of one full Run of
// the flood workload for the given round count.
func measureRunAllocs(t *testing.T, topo Topology, workers, rounds int) float64 {
	t.Helper()
	nw, err := NewNetwork(topo, 64)
	if err != nil {
		t.Fatal(err)
	}
	factory := newBenchFlood(rounds)
	opts := Options{MaxRounds: rounds + 2, Workers: workers}
	return testing.AllocsPerRun(5, func() {
		if _, err := nw.Run(factory, opts); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAppendConstructorsAllocFree pins the contract the Into constructors
// advertise: appending into a slice with retained capacity allocates nothing,
// so a node that keeps one outbox across rounds builds its messages entirely
// off the heap.
func TestAppendConstructorsAllocFree(t *testing.T) {
	nw, err := NewNetwork(graph.Star(8), 64)
	if err != nil {
		t.Fatal(err)
	}
	// A context is valid only inside its run, so the hub's factory call
	// measures the constructors.
	allocs := map[string]float64{}
	if _, err := nw.Run(func(hub *Context) Node {
		if hub.ID() == 0 {
			var neighbors []int
			for i := range hub.Degree() {
				neighbors = append(neighbors, hub.NeighborAt(i))
			}
			dst := make([]Message, 0, 64)
			cases := map[string]func(){
				"AppendWordMessage":     func() { dst = AppendWordMessage(dst[:0], 1, 1, 7, 0, 8) },
				"BroadcastWordsInto":    func() { dst = BroadcastWordsInto(dst[:0], neighbors, 1, 7, 0, 8) },
				"BroadcastAllWordsInto": func() { dst = BroadcastAllWordsInto(dst[:0], hub, 1, 7, 0, 8) },
			}
			for name, f := range cases {
				allocs[name] = testing.AllocsPerRun(100, f)
			}
		}
		return &benchFloodNode{rounds: 0}
	}, Options{MaxRounds: 4}); err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 3 {
		t.Fatalf("measured %d constructors, want 3", len(allocs))
	}
	for name, n := range allocs {
		if n != 0 {
			t.Errorf("%s: %.1f allocs per call into retained capacity, want 0", name, n)
		}
	}
}

// TestRoundLoopSteadyStateAllocFree pins the tentpole guarantee: once a
// run's buffers have warmed up (a handful of rounds), extra rounds allocate
// nothing. Two runs of the same workload that differ only in round count
// isolate the steady state — the per-run setup cost cancels in the
// difference, so (allocs(long) - allocs(short)) / extra rounds must be ~0
// at one worker and on the worker pool.
func TestRoundLoopSteadyStateAllocFree(t *testing.T) {
	topo := graph.Grid(24, 24)
	const short, long = 8, 104
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := measureRunAllocs(t, topo, workers, short)
			grown := measureRunAllocs(t, topo, workers, long)
			perRound := (grown - base) / float64(long-short)
			if perRound > 0.5 {
				t.Errorf("steady state allocates %.2f objects/round (short run %.0f, long run %.0f); want 0",
					perRound, base, grown)
			}
		})
	}
}
