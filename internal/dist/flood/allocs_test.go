package flood

import (
	"runtime"
	"testing"

	"qdc/internal/congest"
	"qdc/internal/dist/engine"
	"qdc/internal/graph"
)

// TestFloodRunAllocsBounded gates the flood pass's allocations at 128
// objects, whatever the network's size. The node programs come from one
// slab, every message is built in the simulator's send log and delivered
// into its receive arena, and Run reads each distance from the slab, so
// nothing is allocated per node: what is left is per run (the slab, the
// Result, the inputs map) and, on a fresh network, the run state's tables
// and the arena's few growths. The reused cases run on one network, as a
// multi-stage algorithm does; the fresh case builds its network from a CSR
// grid every pass, as a flood scenario does, and reaches distances up to
// 638. A regression that boxes a distance or a message, or allocates an
// outbox or an inbox per node, breaks the bound by thousands.
//
// The fresh case also bounds the bytes a pass allocates, read from
// MemStats.TotalAlloc, at 8 MiB: the run state's per-node tables, its
// edge-bit table and the slab, about 6.7 MiB on the 320x320 grid, with
// inbox memory that follows the wave's at most about 1,300 messages a
// round, nothing per node for a node's view, and no neighbour table of its
// own, since the run reads the CSR's in place. Copying the CSR's targets
// and offsets takes the pass to 8.65 MiB, a 32-byte context per node on
// top of that to 11.8 MiB, and inboxes that grow with n, such as
// per-worker chunks of n messages, past 27 MiB.
func TestFloodRunAllocsBounded(t *testing.T) {
	cases := []struct {
		name  string
		topo  congest.Topology
		fresh bool
	}{
		{"grid24x24", graph.Grid(24, 24), false},
		{"path600", graph.Path(600), false},
		{"fresh-csr-grid320x320", graph.FromGraph(graph.Grid(320, 320)), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newRunner := func() *engine.Local {
				r, err := engine.NewLocal(tc.topo, 64, 7)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			r := newRunner()
			allocs := testing.AllocsPerRun(5, func() {
				if tc.fresh {
					r = newRunner()
				}
				if _, err := Run(r, 0); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%.0f objects per pass on %d nodes", allocs, tc.topo.N())
			if allocs > 128 {
				t.Errorf("flood run allocates %.0f objects per pass on %d nodes, want at most 128", allocs, tc.topo.N())
			}
			if !tc.fresh {
				return
			}
			const passes = 3
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range passes {
				if _, err := Run(newRunner(), 0); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			mib := float64(after.TotalAlloc-before.TotalAlloc) / passes / (1 << 20)
			t.Logf("%.2f MiB per pass on %d nodes", mib, tc.topo.N())
			if mib > 8 {
				t.Errorf("a fresh flood pass allocates %.2f MiB on %d nodes, want at most 8", mib, tc.topo.N())
			}
		})
	}
}
