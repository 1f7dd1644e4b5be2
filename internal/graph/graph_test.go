package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGraphEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 {
		t.Fatalf("N() = %d, want 5", g.N())
	}
	if g.M() != 0 {
		t.Fatalf("M() = %d, want 0", g.M())
	}
	if g.HasEdge(0, 1) {
		t.Fatal("HasEdge(0,1) = true on empty graph")
	}
}

func TestNewNegative(t *testing.T) {
	g := New(-3)
	if g.N() != 0 {
		t.Fatalf("N() = %d, want 0", g.N())
	}
}

func TestAddEdgeAndQuery(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1, 2.5); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(2, 1, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge (0,1) not found in both orientations")
	}
	if !g.HasEdge(1, 2) {
		t.Fatal("edge (1,2) not found")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("unexpected edge (0,2)")
	}
	w, ok := g.Weight(1, 0)
	if !ok || w != 2.5 {
		t.Fatalf("Weight(1,0) = %g,%v want 2.5,true", w, ok)
	}
	if g.Degree(1) != 2 {
		t.Fatalf("Degree(1) = %d, want 2", g.Degree(1))
	}
	if got := g.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Neighbors(1) = %v, want [0 2]", got)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	tests := []struct {
		name    string
		u, v    int
		w       float64
		wantErr error
	}{
		{"out of range low", -1, 1, 1, ErrVertexOutOfRange},
		{"out of range high", 0, 3, 1, ErrVertexOutOfRange},
		{"self loop", 2, 2, 1, ErrSelfLoop},
		{"parallel", 1, 0, 1, ErrParallelEdge},
		{"zero weight", 1, 2, 0, ErrNonPositiveWeight},
		{"negative weight", 1, 2, -2, ErrNonPositiveWeight},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := g.AddEdge(tc.u, tc.v, tc.w)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("AddEdge(%d,%d,%g) error = %v, want %v", tc.u, tc.v, tc.w, err, tc.wantErr)
			}
		})
	}
}

// TestNeighborRanksAscending adds a hub's edges out of order and checks
// that every vertex's neighbours read back by rank in ascending order with
// their weights, and that a duplicate ranked mid-list is refused.
func TestNeighborRanksAscending(t *testing.T) {
	g := New(6)
	for _, e := range [][2]int{{0, 4}, {0, 2}, {5, 0}, {0, 1}, {3, 0}, {4, 2}} {
		g.MustAddEdge(e[0], e[1], float64(10*min(e[0], e[1])+max(e[0], e[1])))
	}
	want := [][]int{{1, 2, 3, 4, 5}, {0}, {0, 4}, {0}, {0, 2}, {0}}
	for v, nbrs := range want {
		if g.Degree(v) != len(nbrs) {
			t.Fatalf("Degree(%d) = %d, want %d", v, g.Degree(v), len(nbrs))
		}
		for i, u := range nbrs {
			got, w := g.Neighbor(v, i)
			if got != u || w != float64(10*min(u, v)+max(u, v)) {
				t.Errorf("Neighbor(%d,%d) = (%d, %g), want neighbour %d", v, i, got, w, u)
			}
		}
	}
	if err := g.AddEdge(0, 3, 1); !errors.Is(err, ErrParallelEdge) {
		t.Errorf("AddEdge(0,3) on an existing edge: error %v, want ErrParallelEdge", err)
	}
}

func TestSetWeight(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	if err := g.SetWeight(1, 0, 7); err != nil {
		t.Fatalf("SetWeight: %v", err)
	}
	if w, _ := g.Weight(0, 1); w != 7 {
		t.Fatalf("Weight after SetWeight = %g, want 7", w)
	}
	for _, e := range g.IncidentEdges(1) {
		if e.Weight != 7 {
			t.Fatalf("incident edge weight = %g, want 7", e.Weight)
		}
	}
	if err := g.SetWeight(0, 2, 3); err == nil {
		t.Fatal("SetWeight on missing edge did not error")
	}
	if err := g.SetWeight(0, 1, -1); err == nil {
		t.Fatal("SetWeight with negative weight did not error")
	}
}

func TestEdgesCanonicalAndSorted(t *testing.T) {
	g := New(4)
	g.MustAddEdge(3, 2, 1)
	g.MustAddEdge(1, 0, 1)
	g.MustAddEdge(3, 0, 1)
	edges := g.Edges()
	if len(edges) != 3 {
		t.Fatalf("len(Edges) = %d, want 3", len(edges))
	}
	want := [][2]int{{0, 1}, {0, 3}, {2, 3}}
	for i, e := range edges {
		if e.U != want[i][0] || e.V != want[i][1] {
			t.Fatalf("Edges()[%d] = (%d,%d), want %v", i, e.U, e.V, want[i])
		}
		if e.U > e.V {
			t.Fatalf("edge %v not canonical", e)
		}
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{U: 2, V: 5}
	if e.Other(2) != 5 || e.Other(5) != 2 {
		t.Fatal("Other returned wrong endpoint")
	}
	if e.Other(7) != -1 {
		t.Fatal("Other on non-endpoint should be -1")
	}
}

func TestAddVertex(t *testing.T) {
	g := Path(3)
	v := g.AddVertex()
	if v != 3 || g.N() != 4 {
		t.Fatalf("AddVertex -> %d, N=%d; want 3, 4", v, g.N())
	}
	if g.Degree(v) != 0 {
		t.Fatal("new vertex should be isolated")
	}
	g.MustAddEdge(v, 0, 1)
	if !g.HasEdge(3, 0) {
		t.Fatal("edge to new vertex missing")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Path(4)
	c := g.Clone()
	c.MustAddEdge(0, 3, 1)
	if g.HasEdge(0, 3) {
		t.Fatal("mutating clone affected original")
	}
	if c.M() != g.M()+1 {
		t.Fatalf("clone M = %d, want %d", c.M(), g.M()+1)
	}
}

func TestAspectRatioAndTotalWeight(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 8)
	if r := g.AspectRatio(); r != 4 {
		t.Fatalf("AspectRatio = %g, want 4", r)
	}
	if w := g.TotalWeight(); w != 10 {
		t.Fatalf("TotalWeight = %g, want 10", w)
	}
	if r := New(2).AspectRatio(); r != 1 {
		t.Fatalf("AspectRatio of empty graph = %g, want 1", r)
	}
}

func TestBFSDistances(t *testing.T) {
	g := Path(5)
	res := g.BFS(0)
	for v := 0; v < 5; v++ {
		if res.Dist[v] != v {
			t.Fatalf("Dist[%d] = %d, want %d", v, res.Dist[v], v)
		}
	}
	if res.Parent[0] != -1 || res.Parent[3] != 2 {
		t.Fatalf("unexpected parents: %v", res.Parent)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	res := g.BFS(0)
	if res.Dist[2] != -1 || res.Dist[3] != -1 {
		t.Fatalf("unreachable distances = %v, want -1", res.Dist)
	}
}

func TestDiameter(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path5", Path(5), 4},
		{"complete6", Complete(6), 1},
		{"star8", Star(8), 2},
		{"single", New(1), 0},
		{"grid3x4", Grid(3, 4), 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if d := tc.g.Diameter(); d != tc.want {
				t.Fatalf("Diameter = %d, want %d", d, tc.want)
			}
		})
	}
	disconnected := New(3)
	disconnected.MustAddEdge(0, 1, 1)
	if d := disconnected.Diameter(); d != -1 {
		t.Fatalf("Diameter of disconnected graph = %d, want -1", d)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(3, 4, 1)
	comp, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if comp[0] != comp[2] || comp[3] != comp[4] || comp[0] == comp[3] || comp[5] == comp[0] {
		t.Fatalf("unexpected components: %v", comp)
	}
}

func TestIsSpanningTree(t *testing.T) {
	if !Path(5).IsSpanningTree() {
		t.Fatal("path should be a spanning tree")
	}
	if !Star(7).IsSpanningTree() {
		t.Fatal("star should be a spanning tree")
	}
	cyc, err := Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	if cyc.IsSpanningTree() {
		t.Fatal("cycle is not a spanning tree")
	}
	forest := New(4)
	forest.MustAddEdge(0, 1, 1)
	forest.MustAddEdge(2, 3, 1)
	if forest.IsSpanningTree() {
		t.Fatal("forest with 2 components is not a spanning tree")
	}
}

func TestIsHamiltonianCycle(t *testing.T) {
	cyc, err := Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	if !cyc.IsHamiltonianCycle() {
		t.Fatal("cycle(6) should be a Hamiltonian cycle of itself")
	}
	if Path(6).IsHamiltonianCycle() {
		t.Fatal("path is not a Hamiltonian cycle")
	}
	// Two disjoint triangles: 2-regular but disconnected.
	g := New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		g.MustAddEdge(e[0], e[1], 1)
	}
	if g.IsHamiltonianCycle() {
		t.Fatal("two triangles are not a Hamiltonian cycle")
	}
}

func TestIsSimplePath(t *testing.T) {
	if !Path(5).IsSimplePath() {
		t.Fatal("path should be a simple path")
	}
	cyc, _ := Cycle(5)
	if cyc.IsSimplePath() {
		t.Fatal("cycle is not a simple path")
	}
	// A path plus isolated vertices still counts.
	g := New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	if !g.IsSimplePath() {
		t.Fatal("path with isolated vertices should be a simple path")
	}
	// Two disjoint paths are not a single simple path.
	g.MustAddEdge(3, 4, 1)
	if g.IsSimplePath() {
		t.Fatal("two disjoint paths are not a simple path")
	}
	if !New(4).IsSimplePath() {
		t.Fatal("empty graph counts as trivial simple path")
	}
	if Star(5).IsSimplePath() {
		t.Fatal("star with 4 leaves is not a simple path")
	}
}

func TestHasCycleAndCountCycles(t *testing.T) {
	if Path(5).HasCycle() {
		t.Fatal("path has no cycle")
	}
	cyc, _ := Cycle(4)
	if !cyc.HasCycle() {
		t.Fatal("cycle should have a cycle")
	}
	// Two disjoint cycles plus an isolated path.
	g := New(11)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 6}, {6, 3}, {7, 8}} {
		g.MustAddEdge(e[0], e[1], 1)
	}
	if got := g.CountCycles(); got != 2 {
		t.Fatalf("CountCycles = %d, want 2", got)
	}
	if got := Path(6).CountCycles(); got != 0 {
		t.Fatalf("CountCycles(path) = %d, want 0", got)
	}
}

func TestIsBipartite(t *testing.T) {
	ok, coloring := Grid(3, 3).IsBipartite()
	if !ok {
		t.Fatal("grid should be bipartite")
	}
	g := Grid(3, 3)
	for _, e := range g.Edges() {
		if coloring[e.U] == coloring[e.V] {
			t.Fatalf("invalid colouring on edge %v", e)
		}
	}
	odd, _ := Cycle(5)
	if ok, _ := odd.IsBipartite(); ok {
		t.Fatal("odd cycle is not bipartite")
	}
	even, _ := Cycle(6)
	if ok, _ := even.IsBipartite(); !ok {
		t.Fatal("even cycle is bipartite")
	}
}

func TestSTConnected(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(3, 4, 1)
	if !g.STConnected(0, 1) || g.STConnected(0, 3) {
		t.Fatal("STConnected wrong")
	}
	if !g.STConnected(2, 2) {
		t.Fatal("vertex is connected to itself")
	}
	if g.STConnected(-1, 2) || g.STConnected(0, 9) {
		t.Fatal("out of range should be false")
	}
}

func TestIsCutOf(t *testing.T) {
	host := Path(4)
	cut := New(4)
	cut.MustAddEdge(1, 2, 1)
	if !cut.IsCutOf(host) {
		t.Fatal("middle edge is a cut of the path")
	}
	notCut := New(4)
	if notCut.IsCutOf(host) {
		t.Fatal("empty set is not a cut of a connected path")
	}
	if !cut.IsSTCutOf(host, 0, 3) {
		t.Fatal("middle edge separates 0 from 3")
	}
	if cut.IsSTCutOf(host, 0, 1) {
		t.Fatal("middle edge does not separate 0 from 1")
	}
}

func TestKruskalMSTMatchesKnownValue(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 3, 3)
	g.MustAddEdge(0, 3, 10)
	g.MustAddEdge(0, 2, 2.5)
	edges, total := g.KruskalMST()
	if len(edges) != 3 {
		t.Fatalf("MST edge count = %d, want 3", len(edges))
	}
	if total != 6 {
		t.Fatalf("MST weight = %g, want 6", total)
	}
}

func TestKruskalOnDisconnected(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(2, 3, 7)
	edges, total := g.KruskalMST()
	if len(edges) != 2 || total != 12 {
		t.Fatalf("forest = %d edges weight %g, want 2 edges weight 12", len(edges), total)
	}
}

func TestWeightedDistances(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(0, 2, 5)
	g.MustAddEdge(2, 3, 1)
	dist := g.WeightedDistances(0)
	want := []float64{0, 1, 3, 4}
	for v, d := range want {
		if dist[v] != d {
			t.Fatalf("dist[%d] = %g, want %g", v, dist[v], d)
		}
	}
}

func TestMinCutBruteForce(t *testing.T) {
	// A dumbbell: two triangles joined by a single light edge.
	g := New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		g.MustAddEdge(e[0], e[1], 5)
	}
	g.MustAddEdge(2, 3, 1)
	if got := g.MinCutWeightBruteForce(); got != 1 {
		t.Fatalf("min cut = %g, want 1", got)
	}
	if got := Complete(4).MinCutWeightBruteForce(); got != 3 {
		t.Fatalf("min cut of K4 = %g, want 3", got)
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Components() != 5 {
		t.Fatalf("components = %d, want 5", uf.Components())
	}
	if !uf.Union(0, 1) || !uf.Union(1, 2) {
		t.Fatal("unions should merge")
	}
	if uf.Union(0, 2) {
		t.Fatal("redundant union should return false")
	}
	if !uf.Connected(0, 2) || uf.Connected(0, 3) {
		t.Fatal("connectivity wrong")
	}
	if uf.Components() != 3 {
		t.Fatalf("components = %d, want 3", uf.Components())
	}
}

func TestEdgeSetBasics(t *testing.T) {
	s := NewEdgeSet()
	s.Add(2, 1)
	s.Add(0, 3)
	if !s.Contains(1, 2) || !s.Contains(3, 0) {
		t.Fatal("Contains should be orientation independent")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	s.Remove(1, 2)
	if s.Contains(2, 1) {
		t.Fatal("Remove failed")
	}
	pairs := s.Pairs()
	if len(pairs) != 1 || pairs[0] != [2]int{0, 3} {
		t.Fatalf("Pairs = %v", pairs)
	}
}

func TestEdgeSetSubgraphAndUnion(t *testing.T) {
	g := Complete(4)
	s := NewEdgeSetFrom([]Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	sub := s.Subgraph(g)
	if sub.M() != 2 || !sub.HasEdge(0, 1) || !sub.HasEdge(2, 3) || sub.HasEdge(0, 2) {
		t.Fatalf("unexpected subgraph %v", sub)
	}
	other := NewEdgeSetFrom([]Edge{{U: 1, V: 2}})
	s.Union(other)
	if s.Len() != 3 {
		t.Fatalf("union Len = %d, want 3", s.Len())
	}
	clone := s.Clone()
	clone.Remove(0, 1)
	if !s.Contains(0, 1) {
		t.Fatal("clone should be independent")
	}
}

func TestGenerators(t *testing.T) {
	if got := Complete(5).M(); got != 10 {
		t.Fatalf("K5 edges = %d, want 10", got)
	}
	if got := Grid(2, 3).M(); got != 7 {
		t.Fatalf("grid 2x3 edges = %d, want 7", got)
	}
	if _, err := Cycle(2); err == nil {
		t.Fatal("Cycle(2) should fail")
	}
	rng := rand.New(rand.NewSource(1))
	rc := RandomConnectedGraph(40, 0.05, rng)
	if !rc.IsConnected() {
		t.Fatal("RandomConnectedGraph should be connected")
	}
	tree := RandomSpanningTree(30, rng)
	if !tree.IsSpanningTree() {
		t.Fatal("RandomSpanningTree should be a spanning tree")
	}
	weighted, err := AssignRandomWeights(rc, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if weighted.AspectRatio() > 100 {
		t.Fatalf("aspect ratio %g exceeds requested max", weighted.AspectRatio())
	}
	if _, err := AssignRandomWeights(rc, 0.5, rng); err == nil {
		t.Fatal("AssignRandomWeights with max < 1 should fail")
	}
}

func TestPerfectMatching(t *testing.T) {
	m, err := PerfectMatching(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if m.M() != 2 {
		t.Fatalf("matching edges = %d, want 2", m.M())
	}
	if _, err := PerfectMatching(4, [][2]int{{0, 1}, {1, 2}}); err == nil {
		t.Fatal("reused vertex should fail")
	}
	if _, err := PerfectMatching(2, [][2]int{{0, 5}}); err == nil {
		t.Fatal("out-of-range vertex should fail")
	}
}

func TestCyclePairings(t *testing.T) {
	for _, n := range []int{4, 6, 10, 20} {
		ec, ed, err := CyclePairings(n)
		if err != nil {
			t.Fatal(err)
		}
		g := New(n)
		for _, p := range append(append([][2]int{}, ec...), ed...) {
			g.MustAddEdge(p[0], p[1], 1)
		}
		if !g.IsHamiltonianCycle() {
			t.Fatalf("CyclePairings(%d) union is not a Hamiltonian cycle", n)
		}
	}
	if _, _, err := CyclePairings(5); err == nil {
		t.Fatal("odd n should fail")
	}
}

func TestTwoCyclePairings(t *testing.T) {
	for _, n := range []int{8, 12, 14} {
		ec, ed, err := TwoCyclePairings(n)
		if err != nil {
			t.Fatal(err)
		}
		g := New(n)
		for _, p := range append(append([][2]int{}, ec...), ed...) {
			if !g.HasEdge(p[0], p[1]) {
				g.MustAddEdge(p[0], p[1], 1)
			}
		}
		if g.IsHamiltonianCycle() {
			t.Fatalf("TwoCyclePairings(%d) should not form a single cycle", n)
		}
		if got := g.CountCycles(); got != 2 {
			t.Fatalf("TwoCyclePairings(%d) cycles = %d, want 2", n, got)
		}
	}
}

func TestRandomPerfectMatchingPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pairs, err := RandomPerfectMatchingPairs(10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 {
		t.Fatalf("pairs = %d, want 5", len(pairs))
	}
	seen := make(map[int]bool)
	for _, p := range pairs {
		if seen[p[0]] || seen[p[1]] {
			t.Fatal("vertex reused")
		}
		seen[p[0]], seen[p[1]] = true, true
	}
	if _, err := RandomPerfectMatchingPairs(7, rng); err == nil {
		t.Fatal("odd n should fail")
	}
}

// Property: for random connected graphs, the Kruskal MST weight never
// exceeds the weight of any spanning tree obtained by BFS.
func TestQuickMSTIsMinimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		g := RandomConnectedGraph(n, 0.3, rng)
		weighted, err := AssignRandomWeights(g, 50, rng)
		if err != nil {
			return false
		}
		_, mstW := weighted.KruskalMST()
		// BFS tree from vertex 0 is some spanning tree.
		res := weighted.BFS(0)
		var bfsW float64
		for v := 1; v < weighted.N(); v++ {
			w, ok := weighted.Weight(v, res.Parent[v])
			if !ok {
				return false
			}
			bfsW += w
		}
		return mstW <= bfsW+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the union of two random perfect matchings on the same vertex
// set consists only of disjoint cycles (every vertex has degree exactly 2
// when matchings are disjoint, or degree <= 2 in general), matching
// Observation 8.1's premise.
func TestQuickMatchingUnionCycles(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 * (2 + rng.Intn(20))
		p1, err := RandomPerfectMatchingPairs(n, rng)
		if err != nil {
			return false
		}
		p2, err := RandomPerfectMatchingPairs(n, rng)
		if err != nil {
			return false
		}
		g := New(n)
		for _, p := range append(append([][2]int{}, p1...), p2...) {
			if !g.HasEdge(p[0], p[1]) {
				g.MustAddEdge(p[0], p[1], 1)
			}
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) > 2 || g.Degree(v) < 1 {
				return false
			}
		}
		// Every component must contain a cycle or be a single shared edge.
		comp, count := g.ConnectedComponents()
		edgeCount := make([]int, count)
		vertCount := make([]int, count)
		for _, e := range g.Edges() {
			edgeCount[comp[e.U]]++
		}
		for v := 0; v < n; v++ {
			vertCount[comp[v]]++
		}
		for c := 0; c < count; c++ {
			if edgeCount[c] != vertCount[c] && edgeCount[c] != vertCount[c]-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
