package exp

import (
	"math/rand"
	"runtime"
	"testing"

	"qdc/internal/graph"
)

// streamableSpecs covers every family Streamable admits, including the ones
// that consume the scenario rng (random, tree).
var streamableSpecs = []TopologySpec{
	{Family: FamilyPath, Size: 9},
	{Family: FamilyCycle, Size: 8},
	{Family: FamilyStar, Size: 10},
	{Family: FamilyComplete, Size: 6},
	{Family: FamilyGrid, Size: 36},
	{Family: FamilyGrid, Size: 40}, // rounds down to the 6x6 grid
	{Family: FamilyRandom, Size: 30, Param: 0.2},
	{Family: FamilyTree, Size: 25},
}

// TestBuildCSRMatchesBuild pins the streaming loader against the map-based
// constructor: identical seeds must yield identical vertex counts (the
// spec's vertex-count rule), edge counts, neighbour tables (ids, order and
// weights) and rng consumption, so a scenario is bit-identical whichever
// route built its topology.
func TestBuildCSRMatchesBuild(t *testing.T) {
	for _, spec := range streamableSpecs {
		rngMap := rand.New(rand.NewSource(99))
		rngCSR := rand.New(rand.NewSource(99))
		built, err := spec.Build(rngMap)
		if err != nil {
			t.Fatalf("%s: Build: %v", spec, err)
		}
		csr, err := spec.BuildCSR(rngCSR)
		if err != nil {
			t.Fatalf("%s: BuildCSR: %v", spec, err)
		}
		g := built.Graph
		if n, _ := spec.size(); csr.N() != g.N() || csr.M() != g.M() || g.N() != n {
			t.Fatalf("%s: CSR is %d vertices / %d edges, graph is %d / %d, size() counts %d vertices",
				spec, csr.N(), csr.M(), g.N(), g.M(), n)
		}
		for v := 0; v < g.N(); v++ {
			if csr.Degree(v) != g.Degree(v) {
				t.Fatalf("%s: degree(%d) = %d via CSR, %d via graph", spec, v, csr.Degree(v), g.Degree(v))
			}
			for i, u := range g.Neighbors(v) {
				id, w := csr.Neighbor(v, i)
				if id != u {
					t.Fatalf("%s: neighbor(%d,%d) = %d via CSR, %d via graph", spec, v, i, id, u)
				}
				gw, ok := g.Weight(v, u)
				if !ok || w != gw {
					t.Fatalf("%s: weight(%d,%d) = %g via CSR, %g via graph", spec, v, u, w, gw)
				}
			}
		}
		if a, b := rngMap.Int63(), rngCSR.Int63(); a != b {
			t.Errorf("%s: the two routes consumed the rng differently (next draws %d vs %d)", spec, a, b)
		}
	}
}

// TestStreamable pins which specs qualify for the streaming route: reweighted
// topologies and the lower-bound network must keep the map-based Build.
func TestStreamable(t *testing.T) {
	for _, spec := range streamableSpecs {
		if !spec.Streamable() {
			t.Errorf("%s: want streamable", spec)
		}
	}
	for _, spec := range []TopologySpec{
		{Family: FamilyGrid, Size: 36, MaxWeight: 64},
		{Family: FamilyLBNet, Size: 4, Param: 17},
	} {
		if spec.Streamable() {
			t.Errorf("%s: must not be streamable", spec)
		}
	}
}

// TestEmitEdgesReservesFamilyEdgeCount: the family table hands the builder
// the exact edge count of every family but random, whose n−1 tree edges
// are a lower bound, so a streamed CSR fills arrays allocated once.
func TestEmitEdgesReservesFamilyEdgeCount(t *testing.T) {
	for _, spec := range streamableSpecs {
		var reserved, emitted int
		err := spec.emitEdges(rand.New(rand.NewSource(5)), func(n, m int) graph.EdgeEmitter {
			reserved = m
			return func(int, int, float64) { emitted++ }
		})
		if err != nil {
			t.Fatal(err)
		}
		if emitted != reserved && (spec.Family != FamilyRandom || emitted < reserved) {
			t.Errorf("%s: reserved %d edges, streamed %d", spec, reserved, emitted)
		}
	}
}

// TestBuildCSRAllocsBounded gates a streamed CSR build at 16 objects, on a
// 64x64 grid as on a 320x320 one: the builder's two endpoint arrays are
// allocated once at the family's edge count, then Finish's CSR and its
// offsets and targets. Arrays grown by append while the edges stream in
// take several objects each, more on the larger grid. It also gates the
// bytes, read from MemStats.TotalAlloc, at 24 per edge on the 320x320
// grid: 8 for the two endpoints and 8 for the two int32 targets, and the
// offsets' 4 bytes per vertex, about 18 in all. A unit-weight stream keeps
// no weight, so a float64 weight per edge and per slot, with int64
// offsets and a scatter cursor, take it past 48.
func TestBuildCSRAllocsBounded(t *testing.T) {
	for _, size := range []int{4096, 102400} {
		spec := TopologySpec{Family: FamilyGrid, Size: size}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := spec.BuildCSR(nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f objects", spec, allocs)
		if allocs > 16 {
			t.Errorf("BuildCSR(%s) allocates %.0f objects, want at most 16", spec, allocs)
		}
	}
	spec := TopologySpec{Family: FamilyGrid, Size: 102400}
	_, edges := spec.size()
	const builds = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range builds {
		if _, err := spec.BuildCSR(nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / builds / float64(edges)
	t.Logf("%s: %.1f bytes per edge (%d edges)", spec, perEdge, edges)
	if perEdge > 24 {
		t.Errorf("BuildCSR(%s) allocates %.1f bytes per edge, want at most 24", spec, perEdge)
	}
}

// TestBuildRoutesShareErrors: both routes read one family table, so an
// invalid spec fails with the same error whichever route builds it.
func TestBuildRoutesShareErrors(t *testing.T) {
	for _, spec := range []TopologySpec{
		{Family: FamilyPath, Size: 1},
		{Family: FamilyCycle, Size: 2},
		{Family: FamilyGrid, Size: 3},
		{Family: "moebius", Size: 9},
	} {
		_, errMap := spec.Build(rand.New(rand.NewSource(1)))
		_, errCSR := spec.BuildCSR(rand.New(rand.NewSource(1)))
		if errMap == nil || errCSR == nil || errMap.Error() != errCSR.Error() {
			t.Errorf("%s: Build error %v, BuildCSR error %v", spec, errMap, errCSR)
		}
	}
}

// TestBuildTopologyRouting pins which scenarios take the streaming route:
// flood on a streamable family gets a CSR (and no map graph), everything else
// keeps the graph.
func TestBuildTopologyRouting(t *testing.T) {
	grid := TopologySpec{Family: FamilyGrid, Size: 36}
	flood := Scenario{Topology: grid, Algorithm: AlgFlood, Backend: BackendLocal, Bandwidth: 32, Seed: 3}
	topo, err := buildTopology(flood, rand.New(rand.NewSource(flood.Seed)))
	if err != nil {
		t.Fatal(err)
	}
	if topo.CSR == nil || topo.Graph != nil {
		t.Error("flood on a streamable family must build a CSR and no map graph")
	}

	verify := flood
	verify.Algorithm = AlgVerify
	topo, err = buildTopology(verify, rand.New(rand.NewSource(verify.Seed)))
	if err != nil {
		t.Fatal(err)
	}
	if topo.CSR != nil || topo.Graph == nil {
		t.Error("verify needs the map graph (reference Kruskal), not a CSR")
	}
}

// TestFloodRecordIndependentOfRoute runs the same flood scenario through the
// streaming route (RunScenario's default) and through a forced map-graph
// topology, and requires identical records: same rounds, same bits, same
// verdict and detail line. The record must not reveal which constructor ran.
func TestFloodRecordIndependentOfRoute(t *testing.T) {
	for _, spec := range []TopologySpec{
		{Family: FamilyGrid, Size: 36},
		{Family: FamilyRandom, Size: 30, Param: 0.2},
	} {
		s := Scenario{
			Name:      scenarioKey(spec, AlgFlood, BackendParallel, 32),
			Topology:  spec,
			Algorithm: AlgFlood,
			Backend:   BackendParallel,
			Bandwidth: 32,
			Seed:      DeriveSeed(1, "route-independence"),
		}
		streamed := RunScenario(s)
		if streamed.Failed() {
			t.Fatalf("%s streamed: %s %s", spec, streamed.Error, streamed.Detail)
		}

		topo, err := s.Topology.Build(rand.New(rand.NewSource(s.Seed)))
		if err != nil {
			t.Fatal(err)
		}
		runner, err := buildRunner(s, topo, 0)
		if err != nil {
			t.Fatal(err)
		}
		ok, detail, err := runFlood(runner, topo)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("%s map route: %s", spec, detail)
		}
		if streamed.Detail != detail {
			t.Errorf("%s: detail %q streamed vs %q via map graph", spec, streamed.Detail, detail)
		}
		if streamed.Stats != runner.Stats() {
			t.Errorf("%s: stats %+v streamed vs %+v via map graph", spec, streamed.Stats, runner.Stats())
		}
	}
}
