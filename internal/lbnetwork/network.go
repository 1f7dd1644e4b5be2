// Package lbnetwork constructs the lower-bound network N of Section 8 and
// Appendix D.1 of the paper (Figures 8, 9, 10 and 13): Γ parallel paths of L
// vertices each, together with k = log₂(L−1) "highway" paths of
// geometrically decreasing length that bring the hop diameter down to
// Θ(log L), plus cliques on the leftmost and rightmost columns into which
// the server-model players' perfect matchings E_C and E_D are embedded.
//
// The package also provides the time-indexed ownership partition
// S_C^t / S_D^t / S_S^t of Appendix D.2 that drives the three-party
// simulation in package simulation, and the embedding of a server-model
// Ham/Connectivity instance (two perfect matchings on Γ+k vertices) as a
// subnetwork M of N (Observation 8.1 / D.3).
package lbnetwork

import (
	"errors"
	"fmt"
	"math/bits"

	"qdc/internal/graph"
)

// Errors returned by the constructors.
var (
	// ErrBadParams reports invalid construction parameters.
	ErrBadParams = errors.New("lbnetwork: invalid parameters")
	// ErrBadMatching reports an embedding input that is not a perfect
	// matching on the Γ+k endpoint vertices.
	ErrBadMatching = errors.New("lbnetwork: embedding requires perfect matchings on Γ+k vertices")
)

// Network is the constructed lower-bound network N.
type Network struct {
	// Graph is the topology of N.
	Graph *graph.Graph
	// Gamma is the number of ordinary paths P^1..P^Γ.
	Gamma int
	// L is the (rounded) number of vertices per path; L-1 is a power of two.
	L int
	// K is the number of highways, log₂(L−1).
	K int

	pathNodes    [][]int // pathNodes[p][j]: vertex of path p at position j (0-based)
	highwayNodes [][]int // highwayNodes[h]: vertices of highway h in position order
	highwayPos   [][]int // highwayPos[h]: the (0-based) positions of those vertices
	positions    []int   // positions[v]: column position of vertex v
}

// MaxPathLen is the longest path New accepts. Rounding a longer one up to
// 2^k+1 would leave no room in an int long before the network could be
// built.
const MaxPathLen = 1 << 30

// RoundedDims returns the path length L and highway count K that
// New(gamma, pathLen) will realise: pathLen rounded up so that L−1 is a
// power of two (and L >= 3), and K = log₂(L−1). Callers that need to size
// resources for a network before (or without) building it — e.g. the
// experiment harness's ID-width bound — must use this instead of
// re-deriving the rounding rule. K is the bit length of max(pathLen, 3)−2,
// so no input loops; the dims are meaningful up to MaxPathLen, the longest
// path New builds.
func RoundedDims(pathLen int) (l, k int) {
	k = bits.Len(uint(max(pathLen, 3) - 2))
	return 1<<k + 1, k
}

// VertexCount returns the vertex count of New(gamma, pathLen) without
// building it: Γ·L path vertices plus the highways, where highway h has
// (L−1)/2^h + 1 vertices, which sum to L + K − 2 over h = 1..K.
func VertexCount(gamma, pathLen int) int {
	l, k := RoundedDims(pathLen)
	return gamma*l + l + k - 2
}

// New builds the network with gamma paths of pathLen vertices each (pathLen
// is rounded up so that pathLen−1 is a power of two, as in Appendix D.1).
// A path longer than MaxPathLen is refused before it is rounded.
func New(gamma, pathLen int) (*Network, error) {
	if gamma < 2 {
		return nil, fmt.Errorf("%w: need at least 2 paths, got %d", ErrBadParams, gamma)
	}
	if pathLen > MaxPathLen {
		return nil, fmt.Errorf("%w: path length %d is above %d", ErrBadParams, pathLen, MaxPathLen)
	}
	l, k := RoundedDims(pathLen)

	nw := &Network{Gamma: gamma, L: l, K: k}
	g := graph.New(0)

	// Ordinary paths.
	nw.pathNodes = make([][]int, gamma)
	for p := 0; p < gamma; p++ {
		nw.pathNodes[p] = make([]int, l)
		for j := 0; j < l; j++ {
			nw.pathNodes[p][j] = g.AddVertex()
			if j > 0 {
				g.MustAddEdge(nw.pathNodes[p][j-1], nw.pathNodes[p][j], 1)
			}
		}
	}

	// Highways H^1..H^k: highway h has vertices at positions 0, 2^h, 2·2^h, …, L-1.
	nw.highwayNodes = make([][]int, k)
	nw.highwayPos = make([][]int, k)
	for h := 1; h <= k; h++ {
		step := 1 << h
		var nodes, positions []int
		for pos := 0; pos <= l-1; pos += step {
			v := g.AddVertex()
			if len(nodes) > 0 {
				g.MustAddEdge(nodes[len(nodes)-1], v, 1)
			}
			nodes = append(nodes, v)
			positions = append(positions, pos)
		}
		nw.highwayNodes[h-1] = nodes
		nw.highwayPos[h-1] = positions
	}

	// Vertical connections: highway 1 connects to every path at its
	// positions; highway h ≥ 2 connects to highway h−1 at its positions.
	for h := 1; h <= k; h++ {
		for idx, pos := range nw.highwayPos[h-1] {
			v := nw.highwayNodes[h-1][idx]
			if h == 1 {
				for p := 0; p < gamma; p++ {
					g.MustAddEdge(v, nw.pathNodes[p][pos], 1)
				}
			} else if lower, ok := nw.highwayNodeAt(h-1, pos); ok {
				g.MustAddEdge(v, lower, 1)
			}
		}
	}

	// Cliques on the leftmost and rightmost columns (path ends and highway
	// ends), into which E_C and E_D are embedded. Some of these pairs are
	// already joined by the vertical highway connections above.
	left := nw.LeftEndpoints()
	right := nw.RightEndpoints()
	for i := 0; i < len(left); i++ {
		for j := i + 1; j < len(left); j++ {
			if !g.HasEdge(left[i], left[j]) {
				g.MustAddEdge(left[i], left[j], 1)
			}
			if !g.HasEdge(right[i], right[j]) {
				g.MustAddEdge(right[i], right[j], 1)
			}
		}
	}

	// Column positions for fast owner lookups.
	nw.positions = make([]int, g.N())
	for p := 0; p < gamma; p++ {
		for j, v := range nw.pathNodes[p] {
			nw.positions[v] = j
		}
	}
	for h := 0; h < k; h++ {
		for idx, v := range nw.highwayNodes[h] {
			nw.positions[v] = nw.highwayPos[h][idx]
		}
	}

	nw.Graph = g
	return nw, nil
}

func (nw *Network) highwayNodeAt(h, pos int) (int, bool) {
	step := 1 << h
	if pos%step != 0 {
		return 0, false
	}
	idx := pos / step
	if idx >= len(nw.highwayNodes[h-1]) {
		return 0, false
	}
	return nw.highwayNodes[h-1][idx], true
}

// N returns the number of vertices of the network.
func (nw *Network) N() int { return nw.Graph.N() }

// EndpointCount returns Γ+k, the number of vertices of the embedded
// server-model input graph.
func (nw *Network) EndpointCount() int { return nw.Gamma + nw.K }

// PathNode returns the vertex of path p (0-based) at position j (0-based).
func (nw *Network) PathNode(p, j int) (int, error) {
	if p < 0 || p >= nw.Gamma || j < 0 || j >= nw.L {
		return 0, fmt.Errorf("%w: path node (%d,%d)", ErrBadParams, p, j)
	}
	return nw.pathNodes[p][j], nil
}

// HighwayNode returns the idx-th vertex of highway h (1-based h).
func (nw *Network) HighwayNode(h, idx int) (int, error) {
	if h < 1 || h > nw.K || idx < 0 || idx >= len(nw.highwayNodes[h-1]) {
		return 0, fmt.Errorf("%w: highway node (%d,%d)", ErrBadParams, h, idx)
	}
	return nw.highwayNodes[h-1][idx], nil
}

// LeftEndpoints returns the leftmost vertex of every path and highway, in
// the order paths 0..Γ−1 then highways 1..k. Index i of this slice is the
// network vertex playing the role of u_{i+1} of the server-model input
// graph.
func (nw *Network) LeftEndpoints() []int {
	out := make([]int, 0, nw.Gamma+nw.K)
	for p := 0; p < nw.Gamma; p++ {
		out = append(out, nw.pathNodes[p][0])
	}
	for h := 0; h < nw.K; h++ {
		out = append(out, nw.highwayNodes[h][0])
	}
	return out
}

// RightEndpoints returns the rightmost vertex of every path and highway, in
// the same order as LeftEndpoints.
func (nw *Network) RightEndpoints() []int {
	out := make([]int, 0, nw.Gamma+nw.K)
	for p := 0; p < nw.Gamma; p++ {
		out = append(out, nw.pathNodes[p][nw.L-1])
	}
	for h := 0; h < nw.K; h++ {
		out = append(out, nw.highwayNodes[h][len(nw.highwayNodes[h])-1])
	}
	return out
}

// PositionOf returns the column position (0..L−1) of a vertex and whether
// the vertex belongs to the network (clique edges do not change a vertex's
// column).
func (nw *Network) PositionOf(v int) (int, bool) {
	if v < 0 || v >= len(nw.positions) {
		return 0, false
	}
	return nw.positions[v], true
}

// Owner identifies which of the three simulation parties owns a vertex at a
// given time step (Appendix D.2).
type Owner int

// The three parties of the Server model.
const (
	OwnerCarol Owner = iota + 1
	OwnerDavid
	OwnerServer
)

// String implements fmt.Stringer.
func (o Owner) String() string {
	switch o {
	case OwnerCarol:
		return "Carol"
	case OwnerDavid:
		return "David"
	case OwnerServer:
		return "Server"
	default:
		return fmt.Sprintf("Owner(%d)", int(o))
	}
}

// OwnerAt returns the owner of vertex v at time t per the partition of
// Appendix D.2: Carol owns every vertex in the first t+1 columns, David owns
// every vertex in the last t+1 columns, and the server owns the rest.
// For t beyond the meaningful range (t > L/2 − 2) the frontiers keep growing
// and may overlap; callers enforce the round bound.
func (nw *Network) OwnerAt(v, t int) Owner {
	pos, ok := nw.PositionOf(v)
	if !ok {
		return OwnerServer
	}
	if t < 0 {
		t = 0
	}
	switch {
	case pos <= t:
		return OwnerCarol
	case pos >= nw.L-1-t:
		return OwnerDavid
	default:
		return OwnerServer
	}
}

// MaxSimulationRounds returns the largest number of rounds for which the
// Carol/David ownership frontiers are guaranteed not to meet, i.e. the
// L/2 − 2 bound of Theorem 3.5.
func (nw *Network) MaxSimulationRounds() int {
	r := nw.L/2 - 2
	if r < 1 {
		r = 1
	}
	return r
}
