package exp

import (
	"testing"

	"qdc/internal/dist/engine"
	"qdc/internal/dist/flood"
)

// TestMillionNodeStreamingSmoke is the CI gate on the million-node data
// path: the streaming loader must build the n=1,000,000 grid CSR without
// ever materialising adjacency maps, and a full BFS flood at 4 workers must
// run to termination over it, agreeing with a sequential BFS at every
// vertex. The run reads the CSR's int32 neighbour table in place, through
// Adjacency, and the unit-weight grid's CSR holds no weight table.
func TestMillionNodeStreamingSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation multiplies the million-node footprint")
	}
	if testing.Short() {
		t.Skip("million-node flood skipped in short mode")
	}
	spec := TopologySpec{Family: FamilyGrid, Size: 1_000_000}
	csr, err := spec.BuildCSR(nil)
	if err != nil {
		t.Fatal(err)
	}
	if csr.N() != 1_000_000 {
		t.Fatalf("CSR has %d vertices, want 1000000", csr.N())
	}
	r, err := engine.NewLocal(csr, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.SetWorkers(4)
	res, err := flood.Run(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The corner's eccentricity on the 1000x1000 grid is 999 + 999.
	if res.Rounds != 2000 {
		t.Errorf("flood took %d rounds, want ecc(0)+2 = 2000", res.Rounds)
	}
	mismatches := 0
	for v, d := range csr.BFSDist(0) {
		if res.Dist[v] != d {
			mismatches++
		}
	}
	if mismatches > 0 {
		t.Errorf("%d distances disagree with BFS", mismatches)
	}
}
