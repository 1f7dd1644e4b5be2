package flood

import (
	"testing"

	"qdc/internal/congest"
	"qdc/internal/dist/engine"
	"qdc/internal/graph"
)

// TestFloodRunAllocsBounded gates the flood pass's allocations at under one
// object per node. The node programs come from one slab, every message is
// built in the simulator's send log, and the inboxes grow in chunks, so
// what is left per node is boxing each distance of 256 and up into the
// output, once: the runtime caches the boxes of smaller integers. The
// reused cases run on one network, as a multi-stage algorithm does; the
// fresh case builds its network from a CSR grid every pass, as a flood
// scenario does, and reaches distances up to 638. A regression that boxes
// a message, allocates an outbox or an inbox per node, or re-records an
// output at each later wake-up (the next layer's announcement wakes every
// finished node once more) breaks the bound.
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
			perNode := allocs / float64(tc.topo.N())
			t.Logf("%.3f objects per node (%.0f total)", perNode, allocs)
			if perNode >= 1 {
				t.Errorf("flood run allocates %.3f objects per node (%.0f total), want under 1", perNode, allocs)
			}
		})
	}
}
