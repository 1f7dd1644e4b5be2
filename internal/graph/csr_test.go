package graph

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// csrFamilies enumerates every generator family with both construction
// routes: the map-based Graph and the streaming Builder. Random families
// receive separately seeded rngs so the test can prove both routes consume
// the stream identically.
type csrFamily struct {
	name   string
	mapped func(rng *rand.Rand) *Graph
	stream func(b *Builder, rng *rand.Rand)
	n      int
}

func csrFamilies() []csrFamily {
	return []csrFamily{
		{"path", func(*rand.Rand) *Graph { return Path(17) },
			func(b *Builder, _ *rand.Rand) { EmitPath(17, b.MustAddEdge) }, 17},
		{"cycle", func(*rand.Rand) *Graph { g, _ := Cycle(12); return g },
			func(b *Builder, _ *rand.Rand) { EmitCycle(12, b.MustAddEdge) }, 12},
		{"complete", func(*rand.Rand) *Graph { return Complete(9) },
			func(b *Builder, _ *rand.Rand) { EmitComplete(9, b.MustAddEdge) }, 9},
		{"star", func(*rand.Rand) *Graph { return Star(11) },
			func(b *Builder, _ *rand.Rand) { EmitStar(11, b.MustAddEdge) }, 11},
		{"grid", func(*rand.Rand) *Graph { return Grid(4, 5) },
			func(b *Builder, _ *rand.Rand) { EmitGrid(4, 5, b.MustAddEdge) }, 20},
		{"random", func(rng *rand.Rand) *Graph { return RandomGraph(15, 0.3, rng) },
			func(b *Builder, rng *rand.Rand) { EmitRandom(15, 0.3, rng, b.MustAddEdge) }, 15},
		{"random-connected", func(rng *rand.Rand) *Graph { return RandomConnectedGraph(14, 0.2, rng) },
			func(b *Builder, rng *rand.Rand) { EmitRandomConnected(14, 0.2, rng, b.MustAddEdge) }, 14},
		{"tree", func(rng *rand.Rand) *Graph { return RandomSpanningTree(13, rng) },
			func(b *Builder, rng *rand.Rand) { EmitSpanningTree(13, rng, b.MustAddEdge) }, 13},
		{"late-weights", func(*rand.Rand) *Graph { g := New(6); emitLateWeights(g.MustAddEdge); return g },
			func(b *Builder, _ *rand.Rand) { emitLateWeights(b.MustAddEdge) }, 6},
	}
}

// emitLateWeights streams a 6-vertex graph whose first weight other than 1
// arrives after unit edges, in the stream's order and in Graph.Edges'
// order alike, so both routes into the builder back-fill the 1s before it.
func emitLateWeights(emit EdgeEmitter) {
	emit(0, 1, 1)
	emit(1, 2, 1)
	emit(2, 3, 2.5)
	emit(3, 4, 1)
	emit(4, 5, 7)
	emit(0, 5, 1)
	emit(1, 4, 1)
}

// TestBuilderMatchesMapPath is the streaming-equivalence guarantee: for
// every generator family, the CSR built by streaming edges into a Builder is
// byte-identical (offsets, targets, weights) to the CSR converted from the
// map-built Graph, and the random families leave both rngs in the same
// state, proving identical stream consumption. The streamed builder starts
// with no room and grows, while FromGraph reserves the graph's edge count,
// so the two growth paths are compared too. A unit-weight family's CSR has
// no weight table; the late-weights input's has one, whose 1s before the
// first other weight the builder back-filled, and Neighbor reads the
// weights the Graph holds.
func TestBuilderMatchesMapPath(t *testing.T) {
	for _, f := range csrFamilies() {
		t.Run(f.name, func(t *testing.T) {
			rngA := rand.New(rand.NewSource(42))
			rngB := rand.New(rand.NewSource(42))
			g := f.mapped(rngA)
			fromMap := FromGraph(g)
			b := NewBuilder(f.n, 0)
			f.stream(b, rngB)
			streamed, err := b.Finish()
			if err != nil {
				t.Fatalf("Finish: %v", err)
			}
			if !reflect.DeepEqual(fromMap.offsets, streamed.offsets) {
				t.Errorf("offsets differ:\n map: %v\n csr: %v", fromMap.offsets, streamed.offsets)
			}
			if !reflect.DeepEqual(fromMap.targets, streamed.targets) {
				t.Errorf("targets differ:\n map: %v\n csr: %v", fromMap.targets, streamed.targets)
			}
			if !reflect.DeepEqual(fromMap.weights, streamed.weights) {
				t.Errorf("weights differ:\n map: %v\n csr: %v", fromMap.weights, streamed.weights)
			}
			if a, b := rngA.Int63(), rngB.Int63(); a != b {
				t.Errorf("rng streams diverged after generation: %d vs %d", a, b)
			}
			if weighted := f.name == "late-weights"; (streamed.weights != nil) != weighted {
				t.Errorf("weight table %v, want one only for a weighted stream", streamed.weights)
			}
			for _, e := range g.Edges() {
				v, i := e.U, slices.Index(g.Neighbors(e.U), e.V)
				if u, w := streamed.Neighbor(v, i); u != e.V || w != e.Weight {
					t.Errorf("Neighbor(%d, %d) = (%d, %g), want (%d, %g)", v, i, u, w, e.V, e.Weight)
				}
			}
		})
	}
}

// TestCSRMatchesGraphSemantics checks the CSR's read methods against the
// Graph they were built from: N/M, degrees, the ranked Neighbor accessor of
// both (neighbours in ascending order, with their weights) and BFS
// distances.
func TestCSRMatchesGraphSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := RandomConnectedGraph(23, 0.25, rng)
	c := FromGraph(g)
	if c.N() != g.N() || c.M() != g.M() {
		t.Fatalf("size mismatch: CSR n=%d m=%d, graph n=%d m=%d", c.N(), c.M(), g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		if c.Degree(v) != g.Degree(v) {
			t.Fatalf("degree(%d): CSR %d, graph %d", v, c.Degree(v), g.Degree(v))
		}
		want := g.Neighbors(v)
		if !sort.IntsAreSorted(want) || len(want) != g.Degree(v) {
			t.Fatalf("Neighbors(%d) = %v: want Degree(%d) = %d IDs in ascending order", v, want, v, g.Degree(v))
		}
		for i, u := range want {
			gu, gw := g.Neighbor(v, i)
			if gu != u {
				t.Fatalf("graph Neighbor(%d,%d) = %d, want %d", v, i, gu, u)
			}
			if w, ok := g.Weight(v, u); !ok || gw != w {
				t.Fatalf("graph Neighbor(%d,%d) weight %g, Weight(%d,%d) = %g (ok=%v)", v, i, gw, v, u, w, ok)
			}
			cu, cw := c.Neighbor(v, i)
			if cu != u || cw != gw {
				t.Fatalf("CSR Neighbor(%d,%d) = (%d, %g), want (%d, %g)", v, i, cu, cw, u, gw)
			}
		}
	}
	wantDist := g.BFS(0).Dist
	gotDist := c.BFSDist(0)
	if !reflect.DeepEqual(gotDist, wantDist) {
		t.Errorf("BFSDist disagrees with graph BFS")
	}
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder(4, 2)
	if err := b.AddEdge(0, 4, 1); !errors.Is(err, ErrVertexOutOfRange) {
		t.Errorf("out of range: got %v", err)
	}
	if err := b.AddEdge(2, 2, 1); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self loop: got %v", err)
	}
	if err := b.AddEdge(0, 1, 0); !errors.Is(err, ErrNonPositiveWeight) {
		t.Errorf("zero weight: got %v", err)
	}
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 0, 2) // duplicate in reverse orientation
	if _, err := b.Finish(); !errors.Is(err, ErrParallelEdge) {
		t.Errorf("Finish on duplicate edge: got %v", err)
	}
}

func TestBuilderEmpty(t *testing.T) {
	c, err := NewBuilder(3, 0).Finish()
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 3 || c.M() != 0 || c.Degree(0) != 0 {
		t.Errorf("empty CSR: n=%d m=%d deg0=%d", c.N(), c.M(), c.Degree(0))
	}
	if d := c.BFSDist(1); d[0] != -1 || d[1] != 0 || d[2] != -1 {
		t.Errorf("BFSDist on edgeless CSR: %v", d)
	}
}

// TestBuilderFinishAllocsIndependentOfN gates Finish's allocations: the CSR
// and its offsets and targets, the same count on a 64×64 grid as on a
// 320×320 one. Every grid bucket arrives sorted, so a per-vertex allocation
// on the sortedness check shows as a count that grows with n.
func TestBuilderFinishAllocsIndependentOfN(t *testing.T) {
	var allocs []float64
	for _, side := range []int{64, 320} {
		b := NewBuilder(side*side, 2*side*(side-1))
		EmitGrid(side, side, b.MustAddEdge)
		allocs = append(allocs, testing.AllocsPerRun(3, func() {
			if _, err := b.Finish(); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] {
		t.Errorf("Finish allocates %.0f objects on a 64×64 grid and %.0f on a 320×320 one; want the same count",
			allocs[0], allocs[1])
	}
}

// TestFinishRefusesSlotsPastInt32: a CSR's int32 offsets index at most
// math.MaxInt32 directed slots, so Finish refuses a stream of more than
// math.MaxInt32/2 edges before it allocates anything. A stream that long
// would need about 8 GB, so the limit is checked through directedSlots,
// the helper Finish calls first.
func TestFinishRefusesSlotsPastInt32(t *testing.T) {
	const most = math.MaxInt32 / 2
	if slots, err := directedSlots(most); err != nil || slots != math.MaxInt32-1 {
		t.Errorf("directedSlots(%d) = %d, %v; want %d slots", most, slots, err, math.MaxInt32-1)
	}
	want := "graph: 1073741824 edges make 2147483648 directed slots; a CSR holds at most 2147483647"
	if _, err := directedSlots(most + 1); err == nil || err.Error() != want {
		t.Errorf("directedSlots(%d): error %v, want %q", most+1, err, want)
	}
}
