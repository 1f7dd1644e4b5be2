package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// CSR is the compressed-sparse-row form of a simple undirected weighted
// graph: flat tables instead of per-vertex adjacency lists. Vertex v's
// incident edges are targets[offsets[v]:offsets[v+1]] (neighbour IDs in
// ascending order) with parallel weights in the same index range. Offsets
// and targets are int32, four bytes a slot, so a CSR holds at most
// math.MaxInt32 directed slots. A graph whose every edge weighs 1 keeps no
// weight table: Neighbor answers 1, and a flood, which reads no weight,
// pays nothing for one. It is the topology representation of the
// million-node path: a Builder constructs it directly from an edge stream
// in two counting passes, so no intermediate adjacency structure is ever
// materialised. Its Degree and Neighbor read the tables in place, which
// makes it a congest.Topology, and Adjacency hands the offsets and targets
// themselves to a congest run, which reads them without a copy.
//
// CSR is immutable after construction and safe for concurrent readers.
type CSR struct {
	n       int
	offsets []int32
	targets []int32
	// weights is nil when every edge weighs 1.
	weights []float64
}

// N returns the number of vertices.
func (c *CSR) N() int { return c.n }

// M returns the number of undirected edges.
func (c *CSR) M() int { return len(c.targets) / 2 }

// Degree returns the degree of vertex v.
func (c *CSR) Degree(v int) int {
	if v < 0 || v >= c.n {
		return 0
	}
	return int(c.offsets[v+1] - c.offsets[v])
}

// Neighbor returns the i-th neighbour of v in ascending-ID order and the
// weight of the connecting edge, 0 <= i < Degree(v).
func (c *CSR) Neighbor(v, i int) (int, float64) {
	j := int(c.offsets[v]) + i
	if c.weights == nil {
		return int(c.targets[j]), 1
	}
	return int(c.targets[j]), c.weights[j]
}

// Adjacency returns the CSR's own offsets (n+1 entries) and targets (one
// per directed slot): Neighbor(v, i) is targets[offsets[v]+i]. The caller
// must not write them; they are the tables every reader of the CSR shares.
func (c *CSR) Adjacency() (offsets, targets []int32) { return c.offsets, c.targets }

// BFSDist returns the hop distance from src to every vertex (-1 when
// unreachable) straight off the flat tables: the reference computation the
// flood scenarios compare against without materialising a Graph.
func (c *CSR) BFSDist(src int) []int {
	dist := make([]int, c.n)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= c.n {
		return dist
	}
	queue := make([]int32, 0, c.n)
	dist[src] = 0
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		d := dist[v] + 1
		for _, u := range c.targets[c.offsets[v]:c.offsets[v+1]] {
			if dist[u] < 0 {
				dist[u] = d
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// Builder accumulates an edge stream and constructs the CSR tables in two
// counting passes over flat arrays. Generators emit (u,v,w) edges into it —
// directly, or via the Emit* streaming generators — and Finish produces the
// canonical CSR whatever the emission order, so the result is byte-identical
// to converting the equivalent map-built Graph (see FromGraph and the
// equivalence tests).
//
// The builder keeps two int32 endpoint streams and no weight stream until
// the first edge whose weight is not 1 arrives: it then back-fills a 1 for
// every edge before it, and streams weights from there on. So a unit-weight
// stream, every generator family's, costs eight bytes an edge and yields a
// CSR without a weight table.
//
// Validation mirrors Graph.AddEdge: endpoints in range, no self loops,
// positive finite weights. Parallel edges are the one check that moves to
// Finish — detecting them at AddEdge time is exactly what would require the
// adjacency structure the Builder exists to avoid.
type Builder struct {
	n  int
	us []int32
	vs []int32
	// ws is nil until the first weight other than 1.
	ws []float64
}

// NewBuilder returns an empty builder for a graph on n vertices with room
// for m edges. A stream of up to m edges then fills arrays allocated once;
// a longer one grows them as append does, and m <= 0 reserves nothing.
func NewBuilder(n, m int) *Builder {
	n, m = max(n, 0), max(m, 0)
	return &Builder{n: n, us: make([]int32, 0, m), vs: make([]int32, 0, m)}
}

// N returns the number of vertices.
func (b *Builder) N() int { return b.n }

// M returns the number of edges emitted so far.
func (b *Builder) M() int { return len(b.us) }

// AddEdge appends the undirected edge {u,v} with the given weight to the
// stream. Duplicate edges are detected by Finish, not here.
func (b *Builder) AddEdge(u, v int, weight float64) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("%w: (%d,%d) with n=%d", ErrVertexOutOfRange, u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("%w: vertex %d", ErrSelfLoop, u)
	}
	if weight <= 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return fmt.Errorf("%w: got %g", ErrNonPositiveWeight, weight)
	}
	if b.ws == nil && weight != 1 {
		b.ws = make([]float64, len(b.us), cap(b.us))
		for i := range b.ws {
			b.ws[i] = 1
		}
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
	if b.ws != nil {
		b.ws = append(b.ws, weight)
	}
	return nil
}

// MustAddEdge appends an edge and panics on error, for deterministic
// constructions where failure is a programming bug. It satisfies
// EdgeEmitter, so streaming generators plug straight in.
func (b *Builder) MustAddEdge(u, v int, weight float64) {
	if err := b.AddEdge(u, v, weight); err != nil {
		panic(err)
	}
}

// Finish constructs the CSR from the accumulated stream: one counting pass
// into offsets[v+1], a prefix sum shifted one place so that offsets[v+1]
// starts as v's first slot, and one scatter pass that advances offsets[v+1]
// past each slot it places, which leaves it at v's end: the offsets are
// their own cursors. Then a per-bucket sort into ascending neighbour order
// (already-sorted buckets — the common case for the deterministic generator
// families — are detected and skipped). A stream of more than
// math.MaxInt32 directed slots, which the int32 offsets cannot index, is
// an error, found before anything is allocated, and a duplicate edge
// surfaces as ErrParallelEdge. The CSR has a weight table only when the
// stream had a weight other than 1. The builder may be reused or discarded
// afterwards; the CSR shares no state with it.
func (b *Builder) Finish() (*CSR, error) {
	slots, err := directedSlots(len(b.us))
	if err != nil {
		return nil, err
	}
	n := b.n
	c := &CSR{n: n, offsets: make([]int32, n+1), targets: make([]int32, slots)}
	for i := range b.us {
		c.offsets[b.us[i]+1]++
		c.offsets[b.vs[i]+1]++
	}
	var first int32
	for v := 1; v <= n; v++ {
		first, c.offsets[v] = first+c.offsets[v], first
	}
	if b.ws != nil {
		c.weights = make([]float64, slots)
	}
	for i := range b.us {
		u, v := b.us[i], b.vs[i]
		su, sv := c.offsets[u+1], c.offsets[v+1]
		c.targets[su], c.targets[sv] = v, u
		if c.weights != nil {
			c.weights[su], c.weights[sv] = b.ws[i], b.ws[i]
		}
		c.offsets[u+1], c.offsets[v+1] = su+1, sv+1
	}
	for v := 0; v < n; v++ {
		lo, hi := c.offsets[v], c.offsets[v+1]
		t := c.targets[lo:hi]
		// The check reads the targets directly: boxing the bucket into a
		// sort.Interface allocates, so only a bucket to sort pays for it.
		if !slices.IsSorted(t) {
			if c.weights == nil {
				slices.Sort(t)
			} else {
				sort.Sort(csrBucket{t: t, w: c.weights[lo:hi]})
			}
		}
		for i := 1; i < len(t); i++ {
			if t[i] == t[i-1] {
				a, z := v, int(t[i])
				if a > z {
					a, z = z, a
				}
				return nil, fmt.Errorf("%w: (%d,%d)", ErrParallelEdge, a, z)
			}
		}
	}
	return c, nil
}

// directedSlots returns the directed slots of a stream of the given number
// of undirected edges, two each, or an error when they pass math.MaxInt32,
// the most the int32 offsets of a CSR can index.
func directedSlots(edges int) (int, error) {
	if edges > math.MaxInt32/2 {
		return 0, fmt.Errorf("graph: %d edges make %d directed slots; a CSR holds at most %d", edges, 2*edges, math.MaxInt32)
	}
	return 2 * edges, nil
}

// csrBucket sorts one vertex's targets with its weights carried along.
type csrBucket struct {
	t []int32
	w []float64
}

func (s csrBucket) Len() int           { return len(s.t) }
func (s csrBucket) Less(i, j int) bool { return s.t[i] < s.t[j] }
func (s csrBucket) Swap(i, j int) {
	s.t[i], s.t[j] = s.t[j], s.t[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

// FromGraph converts a map-built Graph to its CSR form through the same
// Finish pass the streaming path uses, so both construction routes yield
// byte-identical tables for the same edge set: a unit-weight graph's CSR
// has no weight table, and a weighted one's carries every weight, the 1s
// before its first other weight back-filled by the builder.
func FromGraph(g *Graph) *CSR {
	b := NewBuilder(g.N(), g.M())
	for _, e := range g.Edges() {
		b.MustAddEdge(e.U, e.V, e.Weight)
	}
	c, err := b.Finish()
	if err != nil {
		// g is simple by construction; a duplicate here is impossible.
		panic(err)
	}
	return c
}
