// Package graph provides the undirected weighted graph substrate used by
// every other package in this repository: the distributed network topologies
// of the CONGEST simulator, the input graphs of the server-model problems,
// the gadget graphs of the reductions in Section 7 of the paper, and the
// lower-bound network of Section 8.
//
// Vertices are integers 0..N-1. Graphs are simple (no self loops, no
// parallel edges) and undirected; every edge carries a positive weight
// (weight 1 for unweighted constructions).
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Edge is an undirected weighted edge between vertices U and V.
//
// Edges are stored in canonical orientation (U < V) inside a Graph, but an
// Edge value constructed by callers may have either orientation; use
// Canonical to normalise.
type Edge struct {
	U, V   int
	Weight float64
}

// Canonical returns the edge with endpoints ordered so that U <= V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Other returns the endpoint of e that is not v. It returns -1 if v is not
// an endpoint of e.
func (e Edge) Other(v int) int {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	default:
		return -1
	}
}

// String implements fmt.Stringer.
func (e Edge) String() string {
	return fmt.Sprintf("(%d,%d,w=%g)", e.U, e.V, e.Weight)
}

// Errors returned by graph mutation operations.
var (
	// ErrVertexOutOfRange reports an endpoint outside 0..N-1.
	ErrVertexOutOfRange = errors.New("graph: vertex out of range")
	// ErrSelfLoop reports an attempt to add a self loop.
	ErrSelfLoop = errors.New("graph: self loops are not allowed")
	// ErrParallelEdge reports an attempt to add an edge that already exists.
	ErrParallelEdge = errors.New("graph: parallel edges are not allowed")
	// ErrNonPositiveWeight reports a weight that is not strictly positive.
	ErrNonPositiveWeight = errors.New("graph: edge weights must be positive")
)

// Graph is a simple undirected weighted graph on vertices 0..N-1.
//
// Each vertex's adjacency list is kept in ascending neighbour order, so
// Degree and Neighbor read it by rank: a Graph is the congest simulator's
// topology as it stands.
//
// The zero value is an empty graph on zero vertices; use New to create a
// graph with a fixed vertex count.
type Graph struct {
	n   int
	adj [][]Edge
	m   int
}

// New returns an empty graph on n vertices. n must be non-negative.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{
		n:   n,
		adj: make([][]Edge, n),
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// AddVertex appends a new isolated vertex and returns its index.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, nil)
	g.n++
	return g.n - 1
}

// AddEdge adds the undirected edge {u,v} with the given weight.
// It returns an error if the edge is invalid or already present.
func (g *Graph) AddEdge(u, v int, weight float64) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("%w: (%d,%d) with n=%d", ErrVertexOutOfRange, u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("%w: vertex %d", ErrSelfLoop, u)
	}
	if weight <= 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return fmt.Errorf("%w: got %g", ErrNonPositiveWeight, weight)
	}
	i, found := g.find(u, v)
	if found {
		return fmt.Errorf("%w: (%d,%d)", ErrParallelEdge, u, v)
	}
	j, _ := g.find(v, u)
	e := Edge{U: u, V: v, Weight: weight}.Canonical()
	g.adj[u] = insertEdge(g.adj[u], i, e)
	g.adj[v] = insertEdge(g.adj[v], j, e)
	g.m++
	return nil
}

// insertEdge inserts e into list at rank i.
func insertEdge(list []Edge, i int, e Edge) []Edge {
	if i == len(list) {
		return append(list, e)
	}
	return slices.Insert(list, i, e)
}

// find returns the rank of neighbour u in v's adjacency list, or the rank
// an edge to u would take, and whether the edge exists. Most generators add
// a vertex's edges in ascending order, so the last entry is checked first.
func (g *Graph) find(v, u int) (int, bool) {
	adj := g.adj[v]
	lo, hi := 0, len(adj)
	if hi == 0 || adj[hi-1].Other(v) < u {
		return hi, false
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if adj[mid].Other(v) < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, adj[lo].Other(v) == u
}

// MustAddEdge adds an edge and panics on error. It is intended for
// deterministic constructions (tests, generators) where failure indicates a
// programming bug rather than bad input.
func (g *Graph) MustAddEdge(u, v int, weight float64) {
	if err := g.AddEdge(u, v, weight); err != nil {
		panic(err)
	}
}

// SetWeight updates the weight of the existing edge {u,v}. It returns an
// error if the edge does not exist or the weight is not positive.
func (g *Graph) SetWeight(u, v int, weight float64) error {
	if weight <= 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return fmt.Errorf("%w: got %g", ErrNonPositiveWeight, weight)
	}
	found := false
	for _, w := range []int{u, v} {
		if w < 0 || w >= g.n {
			return fmt.Errorf("%w: vertex %d", ErrVertexOutOfRange, w)
		}
		for i := range g.adj[w] {
			if g.adj[w][i].Other(w) == u+v-w {
				g.adj[w][i].Weight = weight
				found = true
			}
		}
	}
	if !found {
		return fmt.Errorf("graph: edge (%d,%d) not found", u, v)
	}
	return nil
}

// HasEdge reports whether the edge {u,v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	_, ok := g.find(u, v)
	return ok
}

// Weight returns the weight of edge {u,v} and whether it exists.
func (g *Graph) Weight(u, v int) (float64, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, false
	}
	i, ok := g.find(u, v)
	if !ok {
		return 0, false
	}
	return g.adj[u][i].Weight, true
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	if v < 0 || v >= g.n {
		return 0
	}
	return len(g.adj[v])
}

// Neighbor returns the i-th neighbour of v in ascending order and the
// weight of the connecting edge, 0 <= i < Degree(v).
func (g *Graph) Neighbor(v, i int) (int, float64) {
	e := g.adj[v][i]
	return e.Other(v), e.Weight
}

// Neighbors returns the neighbours of v in ascending order. The returned
// slice is freshly allocated and may be modified by the caller.
func (g *Graph) Neighbors(v int) []int {
	if v < 0 || v >= g.n {
		return nil
	}
	out := make([]int, 0, len(g.adj[v]))
	for _, e := range g.adj[v] {
		out = append(out, e.Other(v))
	}
	return out
}

// IncidentEdges returns the edges incident to v (canonical orientation), in
// ascending order of the other endpoint. The returned slice is freshly
// allocated.
func (g *Graph) IncidentEdges(v int) []Edge {
	if v < 0 || v >= g.n {
		return nil
	}
	out := make([]Edge, len(g.adj[v]))
	copy(out, g.adj[v])
	return out
}

// Edges returns every edge exactly once, sorted by (U, V): each edge is
// read at its lower endpoint, whose list is in ascending order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, e := range g.adj[u] {
			if e.U == u { // canonical orientation: emit once
				out = append(out, e)
			}
		}
	}
	return out
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	var sum float64
	for _, e := range g.Edges() {
		sum += e.Weight
	}
	return sum
}

// AspectRatio returns the weight aspect ratio W = max weight / min weight
// (Section 2.2 of the paper). It returns 1 for graphs with no edges.
func (g *Graph) AspectRatio() float64 {
	minW, maxW := math.Inf(1), math.Inf(-1)
	for _, e := range g.Edges() {
		minW = math.Min(minW, e.Weight)
		maxW = math.Max(maxW, e.Weight)
	}
	if g.m == 0 {
		return 1
	}
	return maxW / minW
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := New(g.n)
	for _, e := range g.Edges() {
		out.MustAddEdge(e.U, e.V, e.Weight)
	}
	return out
}

// String implements fmt.Stringer with a short summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d, m=%d}", g.n, g.m)
}
