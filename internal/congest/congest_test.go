package congest

import (
	"errors"
	"strings"
	"testing"

	"qdc/internal/graph"
)

// floodMaxNode floods the maximum ID seen so far; after diameter+1 rounds of
// silence it terminates with the maximum as output. It is the classic
// "leader election by flooding" used here to exercise the simulator.
type floodMaxNode struct {
	best    int
	changed bool
	quiet   int
}

func (f *floodMaxNode) Init(ctx *Context) {
	f.best = ctx.ID()
	f.changed = true
}

func (f *floodMaxNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	for _, m := range inbox {
		if v, ok := m.Payload.(int); ok && v > f.best {
			f.best = v
			f.changed = true
		}
	}
	if f.changed {
		f.changed = false
		f.quiet = 0
		return BroadcastAll(ctx, f.best, BitsForID(ctx.N())), false
	}
	f.quiet++
	ctx.SetOutput(f.best)
	return nil, f.quiet > ctx.N()
}

// setOutputs counts the nodes whose output res holds.
func setOutputs(res *Result) int {
	set := 0
	for _, out := range res.Outputs {
		if out != nil {
			set++
		}
	}
	return set
}

func TestFloodingFindsMaximum(t *testing.T) {
	topo := graph.Path(10)
	nw, err := NewNetwork(topo, 16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(func(*Context) Node { return &floodMaxNode{} }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatal("run did not terminate")
	}
	for id, out := range res.Outputs {
		if out.(int) != 9 {
			t.Fatalf("node %d output %v, want 9", id, out)
		}
	}
	if got := setOutputs(res); got != 10 {
		t.Fatalf("outputs from %d nodes, want 10", got)
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
	rs, err := nwShort.Run(func(*Context) Node { return &floodMaxNode{} }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := nwLong.Run(func(*Context) Node { return &floodMaxNode{} }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rl.Rounds <= rs.Rounds {
		t.Fatalf("flooding on a path (%d rounds) should take longer than on a star (%d rounds)", rl.Rounds, rs.Rounds)
	}
}

// oversendNode violates the bandwidth constraint on purpose.
type oversendNode struct{}

func (oversendNode) Init(*Context) {}
func (oversendNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	if ctx.Degree() == 0 {
		return nil, true
	}
	return []Message{NewMessage(ctx.NeighborAt(0), 0, ctx.Bandwidth()+1)}, false
}

func TestBandwidthEnforced(t *testing.T) {
	nw, _ := NewNetwork(graph.Path(3), 8)
	_, err := nw.Run(func(*Context) Node { return oversendNode{} }, Options{})
	if !errors.Is(err, ErrBandwidthExceeded) {
		t.Fatalf("err = %v, want ErrBandwidthExceeded", err)
	}
}

// strangerNode sends to a node that is not its neighbour.
type strangerNode struct{}

func (strangerNode) Init(*Context) {}
func (strangerNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	target := (ctx.ID() + 2) % ctx.N()
	return []Message{NewMessage(target, 1, 1)}, false
}

func TestNonNeighborRejected(t *testing.T) {
	nw, _ := NewNetwork(graph.Path(5), 8)
	_, err := nw.Run(func(*Context) Node { return strangerNode{} }, Options{})
	if !errors.Is(err, ErrNotNeighbor) {
		t.Fatalf("err = %v, want ErrNotNeighbor", err)
	}
}

// chattyNode never terminates.
type chattyNode struct{}

func (chattyNode) Init(*Context) {}
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
	factory := func(ctx *Context) Node {
		p := probe{input: ctx.Input(), n: ctx.N()}
		for i := range ctx.Degree() {
			p.neighbors = append(p.neighbors, ctx.NeighborAt(i))
		}
		if w, ok := ctx.EdgeWeight(p.neighbors[0]); ok {
			p.weight = w
		}
		probes[ctx.ID()] = p
		return &floodMaxNode{}
	}
	if _, err := nw.Run(factory, Options{Inputs: map[int]any{1: "hello", 99: "ignored"}}); err != nil {
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
		factory := func(ctx *Context) Node {
			draws = append(draws, ctx.Rand().Intn(1_000_000))
			return &floodMaxNode{}
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

func TestOutOfRangeNeighborRejected(t *testing.T) {
	// A neighbour ID outside 0..n-1, or a neighbour list that is not
	// strictly ascending, is a faulty Topology: Run must report it as an
	// error before round 1, never index out of range or misfile an edge
	// later, where a pool worker's panic could not be recovered.
	for _, tc := range []struct {
		topo faultyRing
		want string
	}{
		{faultyRing{2, 4, 17}, "node 3 lists neighbour 17 outside 0..11"},
		{faultyRing{2, 4, 4}, "node 3 lists neighbour 4 after 4"},
		{faultyRing{4, 2}, "node 3 lists neighbour 2 after 4"},
	} {
		for _, workers := range []int{0, 4} {
			nw, err := NewNetwork(tc.topo, 64)
			if err != nil {
				t.Fatal(err)
			}
			res, err := nw.Run(func(*Context) Node { return &hybridNode{rounds: 3} }, Options{Workers: workers})
			if err == nil || !strings.Contains(err.Error(), tc.want) || res != nil {
				t.Errorf("%v Workers=%d: result %+v, error %v; want no result and an error naming %q",
					tc.topo, workers, res, err, tc.want)
			}
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
	msgs := Broadcast([]int{3, 5}, "x", 4)
	if len(msgs) != 2 || msgs[0].To != 3 || msgs[1].To != 5 || msgs[0].Bits != 4 {
		t.Fatalf("broadcast = %+v", msgs)
	}
}

// TestRunWithoutInputsSeesNone checks that inputs belong to the run that
// brings them: a run without Inputs, on a network whose previous run had
// some, sees none.
func TestRunWithoutInputsSeesNone(t *testing.T) {
	nw, _ := NewNetwork(graph.Path(2), 8)
	var saw []any
	factory := func(ctx *Context) Node {
		saw = append(saw, ctx.Input())
		return &floodMaxNode{}
	}
	if _, err := nw.Run(factory, Options{Inputs: map[int]any{0: 1}}); err != nil {
		t.Fatal(err)
	}
	if saw[0] != 1 || saw[1] != nil {
		t.Fatalf("a run with Inputs {0: 1} saw %v", saw)
	}
	saw = saw[:0]
	if _, err := nw.Run(factory, Options{}); err != nil {
		t.Fatal(err)
	}
	for v, in := range saw {
		if in != nil {
			t.Fatalf("a run without Inputs: node %d sees input %v of the run before", v, in)
		}
	}
}
