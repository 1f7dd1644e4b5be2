package congest

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"qdc/internal/graph"
)

// floodMaxNode floods the maximum ID seen so far; after n+1 rounds of
// silence it terminates, its result the maximum in best. It is the classic
// "leader election by flooding" used here to exercise the simulator. It
// builds its broadcasts in a slice of its own, which the simulator copies.
type floodMaxNode struct {
	best    int
	changed bool
	quiet   int
	out     []Message
}

// newFloodMax is node ctx's floodMaxNode, which starts from its own ID.
func newFloodMax(ctx *Context) floodMaxNode { return floodMaxNode{best: ctx.ID(), changed: true} }

func (f *floodMaxNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	for _, m := range inbox {
		if v := m.Int0(); v > f.best {
			f.best = v
			f.changed = true
		}
	}
	if f.changed {
		f.changed = false
		f.quiet = 0
		f.out = BroadcastAllWordsInto(f.out[:0], ctx, 0, uint64(f.best), 0, BitsForID(ctx.N()))
		return f.out, false
	}
	f.quiet++
	return nil, f.quiet > ctx.N()
}

// slab carves the node programs of one run from a slice, as the
// internal/dist algorithms do: node v runs &nodes[v], first set to
// newNode(ctx). A test reads each node's result from nodes once the run
// has returned.
func slab[T any, P interface {
	*T
	Node
}](n int, newNode func(ctx *Context) T) (nodes []T, factory NodeFactory) {
	nodes = make([]T, n)
	return nodes, func(ctx *Context) Node {
		nodes[ctx.ID()] = newNode(ctx)
		return P(&nodes[ctx.ID()])
	}
}

// program builds the node programs of one run on n nodes from a fresh
// slab. It returns their factory and read, which returns the per-node
// results a test compares, read from the slab once the run has returned.
type program func(n int) (factory NodeFactory, read func() any)

// slabOf is the program whose node v runs element v of a fresh slab, first
// set to newNode(ctx), and whose results are the whole slab.
func slabOf[T any, P interface {
	*T
	Node
}](newNode func(ctx *Context) T) program {
	return func(n int) (NodeFactory, func() any) {
		nodes, factory := slab[T, P](n, newNode)
		return factory, func() any { return nodes }
	}
}

func TestFloodingFindsMaximum(t *testing.T) {
	topo := graph.Path(10)
	nw, err := NewNetwork(topo, 16)
	if err != nil {
		t.Fatal(err)
	}
	nodes, factory := slab(topo.N(), newFloodMax)
	res, err := nw.Run(factory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatal("run did not terminate")
	}
	for id, f := range nodes {
		if f.best != 9 || f.quiet <= topo.N() {
			t.Fatalf("node %d ended with best %d after %d quiet rounds, want 9 after more than %d", id, f.best, f.quiet, topo.N())
		}
	}
	if res.TotalMessages == 0 || res.TotalBits == 0 {
		t.Fatal("message accounting is empty")
	}
	if res.MaxEdgeBitsPerRound > 16 {
		t.Fatalf("MaxEdgeBitsPerRound = %d exceeds bandwidth", res.MaxEdgeBitsPerRound)
	}
}

func TestFloodingRoundsScaleWithDiameter(t *testing.T) {
	short := graph.Star(50)
	long := graph.Path(50)
	nwShort, _ := NewNetwork(short, 16)
	nwLong, _ := NewNetwork(long, 16)
	_, shortFactory := slab(short.N(), newFloodMax)
	_, longFactory := slab(long.N(), newFloodMax)
	rs, err := nwShort.Run(shortFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := nwLong.Run(longFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rl.Rounds <= rs.Rounds {
		t.Fatalf("flooding on a path (%d rounds) should take longer than on a star (%d rounds)", rl.Rounds, rs.Rounds)
	}
}

// oversendNode violates the bandwidth constraint on purpose.
type oversendNode struct{}

func (oversendNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	if ctx.Degree() == 0 {
		return nil, true
	}
	return []Message{NewWordMessage(ctx.NeighborAt(0), 0, 0, 0, ctx.Bandwidth()+1)}, false
}

func TestBandwidthEnforced(t *testing.T) {
	nw, _ := NewNetwork(graph.Path(3), 8)
	_, err := nw.Run(func(*Context) Node { return oversendNode{} }, Options{})
	if !errors.Is(err, ErrBandwidthExceeded) {
		t.Fatalf("err = %v, want ErrBandwidthExceeded", err)
	}
}

// strangerNode sends to a node that is not its neighbour: the node two
// hops ahead or, with alias set, its first neighbour's ID plus 2^32, which
// is that neighbour once cut to the neighbour table's int32.
type strangerNode struct{ alias bool }

func (s strangerNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	target := (ctx.ID() + 2) % ctx.N()
	if s.alias {
		target = ctx.NeighborAt(0) + 1<<32
	}
	return []Message{NewWordMessage(target, 0, 1, 0, 1)}, false
}

func TestNonNeighborRejected(t *testing.T) {
	for _, alias := range []bool{false, true} {
		for _, workers := range []int{0, 2} {
			nw, _ := NewNetwork(graph.Path(5), 8)
			_, err := nw.Run(func(*Context) Node { return strangerNode{alias} }, Options{Workers: workers})
			if !errors.Is(err, ErrNotNeighbor) {
				t.Errorf("alias=%v workers=%d: err = %v, want ErrNotNeighbor", alias, workers, err)
			}
		}
	}
}

// chattyNode never terminates.
type chattyNode struct{}

func (chattyNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	return nil, false
}

func TestRoundLimit(t *testing.T) {
	nw, _ := NewNetwork(graph.Path(4), 8)
	res, err := nw.Run(func(*Context) Node { return chattyNode{} }, Options{MaxRounds: 17})
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	if res.Rounds != 17 {
		t.Fatalf("rounds = %d, want 17", res.Rounds)
	}
	if res.Terminated {
		t.Fatal("should not be marked terminated")
	}
}

func TestContextView(t *testing.T) {
	topo := graph.New(3)
	topo.MustAddEdge(0, 1, 2.5)
	topo.MustAddEdge(1, 2, 7)
	nw, _ := NewNetwork(topo, 0) // default bandwidth
	if nw.Bandwidth() != DefaultBandwidth {
		t.Fatalf("bandwidth = %d, want default", nw.Bandwidth())
	}

	type probe struct {
		neighbors []int
		weight    float64
		input     any
		n         int
	}
	probes := make([]probe, 3)
	// A node's input is what its factory hands it: the entry of its ID.
	inputs := map[int]any{1: "hello"}
	_, flood := slab(3, newFloodMax)
	factory := func(ctx *Context) Node {
		p := probe{input: inputs[ctx.ID()], n: ctx.N()}
		for i := range ctx.Degree() {
			p.neighbors = append(p.neighbors, ctx.NeighborAt(i))
		}
		if w, ok := ctx.EdgeWeight(p.neighbors[0]); ok {
			p.weight = w
		}
		probes[ctx.ID()] = p
		return flood(ctx)
	}
	if _, err := nw.Run(factory, Options{}); err != nil {
		t.Fatal(err)
	}
	if probes[1].input != "hello" || probes[0].input != nil {
		t.Fatalf("inputs wrong: %+v", probes)
	}
	if probes[0].n != 3 || len(probes[1].neighbors) != 2 {
		t.Fatalf("context view wrong: %+v", probes)
	}
	if probes[0].weight != 2.5 {
		t.Fatalf("edge weight = %g, want 2.5", probes[0].weight)
	}
}

func TestDeterministicRand(t *testing.T) {
	run := func(seed int64) []int {
		nw, _ := NewNetwork(graph.Complete(4), 16)
		nw.SetSeed(seed)
		var draws []int
		_, flood := slab(4, newFloodMax)
		factory := func(ctx *Context) Node {
			draws = append(draws, ctx.Rand().Intn(1_000_000))
			return flood(ctx)
		}
		if _, err := nw.Run(factory, Options{}); err != nil {
			t.Fatal(err)
		}
		return draws
	}
	a, b, c := run(5), run(5), run(6)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different draws: %v vs %v", a, b)
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical draws")
	}
}

// drawNode draws from its random stream in each of rounds 1..3, one value
// more than its ID mod 3, after whatever its factory drew, and keeps every
// draw. It stays awake through round 3, so between two steps of a node
// every other node of its range steps and draws.
type drawNode struct{ draws []int64 }

func (d *drawNode) Round(ctx *Context, round int, _ []Message) ([]Message, bool) {
	if round > 3 {
		return nil, true
	}
	for range 1 + ctx.ID()%3 {
		d.draws = append(d.draws, ctx.Rand().Int63())
	}
	return nil, false
}

// TestRandStreamsContinueAcrossSteps checks that each node's random stream
// is the one the seed and its ID define and runs on unbroken: from a draw
// its factory makes (every third node's does) into its Round calls, and
// from round to round while the other nodes of its range step and draw in
// between. Every draw must equal the matching value of
// rand.New(rand.NewSource(seed*1_000_003 + v)), on a 40-node cycle at
// Workers 1 and 4 with every round on the pool, in two runs of one network,
// each of which starts every stream from its first value.
func TestRandStreamsContinueAcrossSteps(t *testing.T) {
	forcePool(t)
	const seed = 17
	g, err := graph.Cycle(40)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		nw, err := NewNetwork(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		nw.SetSeed(seed)
		for run := 1; run <= 2; run++ {
			nodes, factory := slab(g.N(), func(ctx *Context) drawNode {
				if ctx.ID()%3 == 0 {
					return drawNode{draws: []int64{ctx.Rand().Int63()}}
				}
				return drawNode{}
			})
			if _, err := nw.Run(factory, Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			for v := range nodes {
				draws := nodes[v].draws
				want := 3 * (1 + v%3)
				if v%3 == 0 {
					want++
				}
				if len(draws) != want {
					t.Fatalf("Workers=%d, run %d: node %d drew %d values, want %d", workers, run, v, len(draws), want)
				}
				stream := rand.New(rand.NewSource(seed*1_000_003 + int64(v)))
				for i, got := range draws {
					if want := stream.Int63(); got != want {
						t.Fatalf("Workers=%d, run %d: node %d's draw %d is %d, want %d", workers, run, v, i, got, want)
					}
				}
			}
		}
	}
}

func TestNilTopologyAndNilFactory(t *testing.T) {
	if _, err := NewNetwork(nil, 8); !errors.Is(err, ErrNoTopology) {
		t.Fatalf("err = %v, want ErrNoTopology", err)
	}
	nw, _ := NewNetwork(graph.Path(2), 8)
	if _, err := nw.Run(func(*Context) Node { return nil }, Options{}); err == nil {
		t.Fatal("nil node should be rejected")
	}
}

// faultyRing is a 12-node ring whose node 3 lists the given neighbours
// instead of 2 and 4, as a faulty Topology implementation might.
type faultyRing []int

func (r faultyRing) N() int { return 12 }

func (r faultyRing) Degree(v int) int {
	if v == 3 {
		return len(r)
	}
	return 2
}

func (r faultyRing) Neighbor(v, i int) (int, float64) {
	if v == 3 {
		return r[i], 1
	}
	return ring(12).Neighbor(v, i)
}

// flatRing is a faultyRing that also lends a flat neighbour table through
// Adjacency, as a graph.CSR does, so a run reads the table in place.
type flatRing struct {
	faultyRing
	offsets, targets []int32
}

func (f flatRing) Adjacency() (offsets, targets []int32) { return f.offsets, f.targets }

// flatten returns r's flat twin, whose table lists r's neighbours by rank.
func (r faultyRing) flatten() flatRing {
	f := flatRing{faultyRing: r, offsets: make([]int32, r.N()+1)}
	for v := range r.N() {
		for i := range r.Degree(v) {
			u, _ := r.Neighbor(v, i)
			f.targets = append(f.targets, int32(u))
		}
		f.offsets[v+1] = int32(len(f.targets))
	}
	return f
}

func TestOutOfRangeNeighborRejected(t *testing.T) {
	// A neighbour ID outside 0..n-1, or a neighbour list that is not
	// strictly ascending, is a faulty Topology: Run must report it as an
	// error before round 1, never index out of range or misfile an edge
	// later, where a pool worker's panic could not be recovered. A table
	// the topology lends is held to the same check as one the run copies,
	// so each fault reads the same either way.
	for _, tc := range []struct {
		topo faultyRing
		want string
	}{
		{faultyRing{2, 4, 17}, "node 3 lists neighbour 17 outside 0..11"},
		{faultyRing{2, 4, 4}, "node 3 lists neighbour 4 after 4"},
		{faultyRing{4, 2}, "node 3 lists neighbour 2 after 4"},
	} {
		expectRefused(t, fmt.Sprint(tc.topo), tc.topo, tc.want)
		expectRefused(t, fmt.Sprint("flat ", tc.topo), tc.topo.flatten(), tc.want)
	}
	// A lent table must also be a table of the topology's N and Degree:
	// the run indexes it by offsets it never wrote.
	ok := faultyRing{2, 4}.flatten()
	decreasing := slices.Clone(ok.offsets)
	decreasing[6] = decreasing[5] - 1
	for _, tc := range []struct {
		name string
		topo flatRing
		want string
	}{
		{"short offsets", flatRing{ok.faultyRing, ok.offsets[:12], ok.targets}, "12 offsets for 12 nodes; the neighbour table needs 13"},
		{"decreasing offset", flatRing{ok.faultyRing, decreasing, ok.targets}, "node 5's neighbours end at slot 9, before they start at 10"},
		{"stray target", flatRing{ok.faultyRing, ok.offsets, append(slices.Clone(ok.targets), 0)}, "the offsets end at slot 24, but the neighbour table has 25 slots"},
		{"missing target", flatRing{ok.faultyRing, ok.offsets, ok.targets[:23]}, "the offsets end at slot 24, but the neighbour table has 23 slots"},
		{"degree", flatRing{faultyRing{2, 4, 5}, ok.offsets, ok.targets}, "node 3 has degree 3, but its window of the neighbour table holds 2"},
	} {
		expectRefused(t, tc.name, tc.topo, tc.want)
	}
}

// expectRefused requires a run over topo, at Workers 0 and 4, to return no
// result and an error naming want, without building a node.
func expectRefused(t *testing.T, name string, topo Topology, want string) {
	t.Helper()
	for _, workers := range []int{0, 4} {
		nw, err := NewNetwork(topo, 64)
		if err != nil {
			t.Fatal(err)
		}
		built := 0
		res, err := nw.Run(func(*Context) Node { built++; return &hybridNode{rounds: 3} }, Options{Workers: workers})
		if err == nil || !strings.Contains(err.Error(), want) || res != nil || built != 0 {
			t.Errorf("%s, Workers=%d: result %+v, error %v, %d nodes built; want no result, an error naming %q and no node",
				name, workers, res, err, built, want)
		}
	}
}

// hugeTopology stores nothing and reports n vertices of the given degree
// each. It has no neighbour to list, so Neighbor panics.
type hugeTopology struct{ n, degree int }

func (h hugeTopology) N() int                           { return h.n }
func (h hugeTopology) Degree(int) int                   { return h.degree }
func (h hugeTopology) Neighbor(int, int) (int, float64) { panic("hugeTopology lists no neighbours") }

// TestOversizedTopologyRefused: node IDs and edge offsets are int32, so a
// topology with more than math.MaxInt32 vertices or directed edges is an
// error, found from N and Degree before the run state allocates anything.
func TestOversizedTopologyRefused(t *testing.T) {
	for _, tc := range []struct {
		topo hugeTopology
		want string
	}{
		{hugeTopology{n: 2, degree: 1 << 31}, "node 0 has degree 2147483648 after 0 directed edges; the int32 tables hold at most 2147483647"},
		{hugeTopology{n: 3, degree: 1 << 30}, "node 1 has degree 1073741824 after 1073741824 directed edges"},
		{hugeTopology{n: 1 << 31}, "2147483648 nodes; the int32 tables hold 0..2147483647"},
	} {
		nw, err := NewNetwork(tc.topo, 64)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := nw.Run(func(*Context) Node { return &hybridNode{rounds: 3} }, Options{})
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) || res != nil {
			t.Errorf("%+v: result %+v, error %v; want no result and an error naming %q", tc.topo, res, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%+v: Run allocated %d bytes before refusing the topology", tc.topo, grew)
		}
	}
}

func TestBitsHelpers(t *testing.T) {
	tests := []struct {
		fn   func(int) int
		in   int
		want int
	}{
		{BitsForID, 1, 1},
		{BitsForID, 2, 1},
		{BitsForID, 1024, 10},
		{BitsForID, 1025, 11},
		{BitsForInt, 0, 1},
		{BitsForInt, 1, 1},
		{BitsForInt, 7, 3},
		{BitsForInt, 8, 4},
		{BitsForInt, -8, 4},
	}
	for _, tc := range tests {
		if got := tc.fn(tc.in); got != tc.want {
			t.Errorf("bits(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}

	// Exact over -5..2^26 and at 2^k-1, 2^k, 2^k+1 up to k = 62: naming one
	// of n > 1 values takes k bits for 2^(k-1) < n <= 2^k, and v takes k bits
	// for 2^(k-1) <= |v| < 2^k. A float log2 is off from 2^49-1 on.
	for v := -5; v <= 1; v++ {
		if got := BitsForID(v); got != 1 {
			t.Fatalf("BitsForID(%d) = %d, want 1", v, got)
		}
	}
	if got := BitsForInt(0); got != 1 {
		t.Fatalf("BitsForInt(0) = %d, want 1", got)
	}
	for k := 1; k <= 26; k++ {
		for v := 1 << (k - 1); v < 1<<k; v++ {
			if BitsForID(v+1) != k || BitsForInt(v) != k || BitsForInt(-v) != k {
				t.Fatalf("k=%d: BitsForID(%d) = %d, BitsForInt(±%d) = %d, %d; want %d",
					k, v+1, BitsForID(v+1), v, BitsForInt(v), BitsForInt(-v), k)
			}
		}
	}
	for k := 2; k <= 62; k++ {
		p := 1 << k
		got := [...]int{BitsForID(p - 1), BitsForID(p), BitsForID(p + 1), BitsForInt(p - 1), BitsForInt(p), BitsForInt(p + 1)}
		if want := [...]int{k, k, k + 1, k, k + 1, k + 1}; got != want {
			t.Errorf("k=%d: BitsForID and BitsForInt at 2^k-1, 2^k, 2^k+1 = %v, want %v", k, got, want)
		}
	}
	if got := BitsForInt(1<<49 - 1); got != 49 {
		t.Errorf("BitsForInt(1<<49 - 1) = %d, want 49", got)
	}
}

func TestBroadcastHelper(t *testing.T) {
	msgs := BroadcastWordsInto(nil, []int{3, 5}, 2, 7, 9, 4)
	want := []Message{{To: 3, Bits: 4, Kind: 2, W0: 7, W1: 9}, {To: 5, Bits: 4, Kind: 2, W0: 7, W1: 9}}
	if !slices.Equal(msgs, want) {
		t.Fatalf("broadcast = %+v, want %+v", msgs, want)
	}
}

// TestFactoryBuildsEachNodeOnceInIDOrder pins the contract a node's
// starting state rests on: Run calls the factory once per node, in
// ascending ID order, before any node steps in round 1, at one worker and
// on the pool.
func TestFactoryBuildsEachNodeOnceInIDOrder(t *testing.T) {
	const n = 12
	for _, workers := range []int{1, 4} {
		nw, err := NewNetwork(ring(n), 8)
		if err != nil {
			t.Fatal(err)
		}
		nodes := make([]silentNode, n)
		var built []int
		factory := func(ctx *Context) Node {
			if v := slices.IndexFunc(nodes, func(s silentNode) bool { return s.steps != 0 }); v >= 0 {
				t.Errorf("Workers=%d: node %d stepped before the factory built node %d", workers, v, ctx.ID())
			}
			built = append(built, ctx.ID())
			return &nodes[ctx.ID()]
		}
		if _, err := nw.Run(factory, Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		want := make([]int, n)
		for v := range want {
			want[v] = v
		}
		if !slices.Equal(built, want) {
			t.Errorf("Workers=%d: the factory built nodes %v, want %v", workers, built, want)
		}
	}
}
