package congest_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"qdc/internal/congest"
	"qdc/internal/graph"
)

// TestContextIs32Bytes pins the per-node footprint of the simulator's
// context slab: a run state pointer, the ID, the lazy random source and
// the send log pointer, two contexts per cache line. Everything else a node
// knows is read from the run's shared tables.
func TestContextIs32Bytes(t *testing.T) {
	size := unsafe.Sizeof(congest.Context{})
	t.Logf("congest.Context: %d bytes per node", size)
	if size != 32 {
		t.Errorf("congest.Context is %d bytes, want 32", size)
	}
}

// TestMessageIs48BytesWithoutPointers pins the message layout: IDs, bits,
// the quantum mark, the kind and two content words, 48 bytes with no field
// that can hold a pointer, so the collector never scans an inbox or a send
// log, and a parked network's logs reach nothing.
func TestMessageIs48BytesWithoutPointers(t *testing.T) {
	typ := reflect.TypeFor[congest.Message]()
	t.Logf("congest.Message: %d bytes per message", typ.Size())
	if typ.Size() != 48 {
		t.Errorf("congest.Message is %d bytes, want 48", typ.Size())
	}
	for i := range typ.NumField() {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("congest.Message.%s is a %s, which can hold a pointer", f.Name, f.Type)
		}
	}
}

// view is what every node of a run checks its context against: the
// topology, the network's settings and the run's inputs. problems[v] is
// what node v found to differ.
type view struct {
	topo      congest.Topology
	bandwidth int
	seed      int64
	inputs    map[int]any
	problems  []string
}

// viewNode checks its context against the run's view in round 1 and
// records what differs. input is what its factory built it with, from the
// context the factory was handed.
type viewNode struct {
	*view
	input any
}

func (vn *viewNode) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	v := ctx.ID()
	vn.problems[v] = vn.check(ctx, v)
	return nil, true
}

// check returns how the view of node v differs from the topology, the
// network's settings and the run's inputs, or "" when it does not.
func (vn *viewNode) check(ctx *congest.Context, v int) string {
	if ctx.N() != vn.topo.N() || ctx.Bandwidth() != vn.bandwidth {
		return fmt.Sprintf("N %d, Bandwidth %d; want %d, %d", ctx.N(), ctx.Bandwidth(), vn.topo.N(), vn.bandwidth)
	}
	if ctx.Degree() != vn.topo.Degree(v) {
		return fmt.Sprintf("Degree %d, want %d", ctx.Degree(), vn.topo.Degree(v))
	}
	adjacent := map[int]bool{}
	for i := range ctx.Degree() {
		u, w := vn.topo.Neighbor(v, i)
		adjacent[u] = true
		if got := ctx.NeighborAt(i); got != u {
			return fmt.Sprintf("NeighborAt(%d) = %d, want %d", i, got, u)
		}
		if got, ok := ctx.EdgeWeight(u); !ok || got != w {
			return fmt.Sprintf("EdgeWeight(%d) = %g, %v; want %g, true", u, got, ok, w)
		}
		if !ctx.IsNeighbor(u) {
			return fmt.Sprintf("IsNeighbor(%d) = false for neighbour %d", u, i)
		}
	}
	stranger := 0
	for adjacent[stranger] {
		stranger++
	}
	if ctx.IsNeighbor(stranger) {
		return fmt.Sprintf("IsNeighbor(%d) = true for a non-neighbour", stranger)
	}
	if w, ok := ctx.EdgeWeight(stranger); ok || w != 0 {
		return fmt.Sprintf("EdgeWeight(%d) = %g, %v for a non-neighbour; want 0, false", stranger, w, ok)
	}
	// IDs that are a neighbour's once cut to the table's int32 are not
	// neighbours.
	for i := range ctx.Degree() {
		u := ctx.NeighborAt(i)
		for _, alias := range []int{u + 1<<32, u - 1<<32} {
			if _, ok := ctx.EdgeWeight(alias); ok || ctx.IsNeighbor(alias) {
				return fmt.Sprintf("ID %d, neighbour %d plus a multiple of 2^32, reads as a neighbour", alias, u)
			}
		}
	}
	if got, want := vn.input, vn.inputs[v]; got != want {
		return fmt.Sprintf("input %v, want %v", got, want)
	}
	want := rand.New(rand.NewSource(vn.seed*1_000_003 + int64(v))).Int63()
	if got := ctx.Rand().Int63(); got != want {
		return fmt.Sprintf("first Rand().Int63() = %d, want %d", got, want)
	}
	return ""
}

// TestContextViewMatchesTopology checks every part of every node's view,
// read from the run's flat tables, against the topology it was built from,
// the network's settings and the run's inputs, which the factory hands
// each node by the ID of the context it was called with, so the node
// stepped with context v is the one built for v: on a weighted random
// graph and on a star whose hub has more neighbours than neighbourRank
// scans linearly, each as a *graph.Graph and as its CSR, stepping on the
// caller and on four workers.
func TestContextViewMatchesTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	weighted, err := graph.AssignRandomWeights(graph.RandomConnectedGraph(40, 0.15, rng), 1000, rng)
	if err != nil {
		t.Fatal(err)
	}
	star := graph.Star(24)
	if star.Degree(0) <= 16 {
		t.Fatalf("the star's hub has %d neighbours; want more than 16", star.Degree(0))
	}
	const bandwidth, seed = 24, 19
	for name, g := range map[string]*graph.Graph{"weighted": weighted, "star": star} {
		for _, topo := range []congest.Topology{g, graph.FromGraph(g)} {
			for _, workers := range []int{1, 4} {
				nw, err := congest.NewNetwork(topo, bandwidth)
				if err != nil {
					t.Fatal(err)
				}
				nw.SetSeed(seed)
				inputs := map[int]any{}
				for v := 0; v < topo.N(); v += 3 {
					inputs[v] = v * 7
				}
				vw := &view{topo: topo, bandwidth: bandwidth, seed: seed, inputs: inputs,
					problems: make([]string, topo.N())}
				for v := range vw.problems {
					vw.problems[v] = "never stepped"
				}
				factory := func(ctx *congest.Context) congest.Node {
					return &viewNode{view: vw, input: inputs[ctx.ID()]}
				}
				if _, err := nw.Run(factory, congest.Options{Workers: workers}); err != nil {
					t.Fatal(err)
				}
				for v, p := range vw.problems {
					if p != "" {
						t.Errorf("%s as %T, Workers=%d: node %d: %s", name, topo, workers, v, p)
					}
				}
			}
		}
	}
}
