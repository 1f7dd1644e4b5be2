package flood

import (
	"testing"

	"qdc/internal/dist/engine"
	"qdc/internal/graph"
)

// TestFloodRunAllocsBounded gates the migrated word-encoded flood path: a
// full run allocates a small constant per node (node structs, one outbox
// built in each node's announcing round, the output map) and nothing per
// message — word payloads never box. The bound is ~1.7x the measured ~7
// allocs/node, so a regression that reintroduces per-message boxing or
// per-round churn (both scale with edges times rounds, not nodes) trips it
// immediately. The path reaches distances past the runtime's small-integer
// cache (256), where an output re-recorded at every later wake-up (the next
// node's announcement wakes each finished node once more) would box a
// fresh int each time.
func TestFloodRunAllocsBounded(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid24x24", graph.Grid(24, 24)},
		{"path600", graph.Path(600)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := engine.NewLocal(tc.g, 64, 7)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := Run(r, 0); err != nil {
					t.Fatal(err)
				}
			})
			if perNode := allocs / float64(tc.g.N()); perNode > 12 {
				t.Errorf("flood run allocates %.2f objects per node (%.0f total), want <= 12", perNode, allocs)
			}
		})
	}
}
