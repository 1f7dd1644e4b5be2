// Package exp is the experiment harness of the repository: it turns the
// paper's cost-separation claims into sweeps that are cheap to run and
// cheap to diff.
//
// The subsystem has three parts:
//
//   - a scenario registry: named Scenario values (topology family ×
//     algorithm × backend × bandwidth × deterministic seed) and Matrix
//     specs that expand into hundreds of concrete runs (see matrix.go) —
//     compiled into the registry or loaded from strictly validated JSON
//     files (LoadMatrix, see load.go);
//   - a worker-pool executor that runs scenarios concurrently across
//     shards with per-run timeouts and panic isolation (see pool.go);
//     Matrix.Shard additionally slices one expansion into deterministic,
//     disjoint pieces for multi-process or multi-machine fan-out (see
//     shard.go), and MergeRecords folds the shard outputs back into the
//     canonical snapshot an unsharded run would have produced, byte for
//     byte (see merge.go);
//   - a results pipeline: Record rows streamed to JSONL/JSON sinks, a
//     Compare regression diff between two result sets (see sink.go), and a
//     Trend view over a directory of snapshots that tracks per-scenario
//     cost trajectories across many PRs (see trend.go).
//
// cmd/qdcbench drives the harness from the command line
// (-matrix/-shard/-workers/-json plus the merge and trend subcommands),
// which is how BENCH_*.json snapshots are produced, merged and compared
// across commits.
package exp

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"

	"qdc/internal/congest"
	"qdc/internal/graph"
	"qdc/internal/lbnetwork"
)

// Topology families understood by TopologySpec.Build.
const (
	FamilyPath     = "path"
	FamilyCycle    = "cycle"
	FamilyStar     = "star"
	FamilyGrid     = "grid"
	FamilyComplete = "complete"
	FamilyRandom   = "random"
	FamilyTree     = "tree"
	// FamilyLBNet is the paper's Section 8 lower-bound network; Size is the
	// number of paths Γ and Param the path length L (rounded up to the next
	// 2^k+1). It is the only family the simulation backend accepts.
	FamilyLBNet = "lbnet"
)

// Backends a Scenario can execute on.
const (
	// BackendLocal is engine.NewLocal: plain sequential CONGEST(B).
	BackendLocal = "local"
	// BackendParallel is engine.NewParallel: identical accounting, rounds
	// stepped concurrently across GOMAXPROCS goroutines.
	BackendParallel = "parallel"
	// BackendSimulation is simulation.NewRunner: the Theorem 3.5 three-party
	// re-accounting on the lower-bound network (FamilyLBNet only).
	BackendSimulation = "simulation"
	// BackendQuantum is engine.NewQuantum: the same classical execution
	// re-accounted with the distributed-Grover round formula of Example 1.1.
	// It pairs with BackendLocal on identical path scenarios to measure the
	// classical-vs-quantum crossover diameter (AlgDisjointness only — the
	// paper's lower bounds rule out a quantum speed-up for the other
	// problem families).
	BackendQuantum = "quantum"
)

// Algorithms a Scenario can run.
const (
	// AlgVerify runs the verify.SpanningTree CONGEST verifier on a positive
	// instance (a reference MST) and a negative one (the same tree with one
	// edge removed) and checks both verdicts.
	AlgVerify = "verify"
	// AlgMST runs the exact distributed Borůvka MST; it needs enough
	// bandwidth for a full weight word per candidate message.
	AlgMST = "mst"
	// AlgMSTApprox runs the 2-approximate rounded-weight MST, whose class
	// keys fit narrow bandwidths.
	AlgMSTApprox = "mst2"
	// AlgDisjointness runs the pipelined Example 1.1 Set Disjointness
	// protocol (FamilyPath only).
	AlgDisjointness = "disjointness"
	// AlgFlood runs the BFS flooding primitive from vertex 0 and checks the
	// adopted distances against a sequential BFS. It is the scale workload:
	// O(1) messages per edge and rounds equal to the eccentricity, so it
	// stays affordable on topologies far beyond the other sweeps.
	AlgFlood = "flood"
)

// TopologySpec names one concrete network topology of a scenario.
type TopologySpec struct {
	// Family is one of the Family* constants.
	Family string `json:"family"`
	// Size is the nominal vertex count (for FamilyGrid it is rounded down
	// to a square; for FamilyLBNet it is the path count Γ).
	Size int `json:"size"`
	// Param is the family-specific knob: edge probability for FamilyRandom,
	// path length L for FamilyLBNet. Zero selects a family default.
	Param float64 `json:"param,omitempty"`
	// MaxWeight, when > 1, redraws edge weights uniformly from
	// [1, MaxWeight] with the scenario's rng (aspect-ratio workloads for
	// MST). Ignored by FamilyLBNet.
	MaxWeight float64 `json:"max_weight,omitempty"`
}

// String returns the label used in scenario names, e.g. "path33" or
// "random40(p=0.15,w=64)". Param and MaxWeight are part of the label
// because they are part of the identity: two topologies differing only in
// them must not collide on scenario name or derived seed.
func (t TopologySpec) String() string {
	label := fmt.Sprintf("%s%d", t.Family, t.Size)
	var knobs []string
	if t.Param != 0 {
		knobs = append(knobs, fmt.Sprintf("p=%g", t.Param))
	}
	if t.MaxWeight > 1 {
		knobs = append(knobs, fmt.Sprintf("w=%g", t.MaxWeight))
	}
	if len(knobs) > 0 {
		label += "(" + strings.Join(knobs, ",") + ")"
	}
	return label
}

// Scenario is one fully specified experiment run. Scenarios are plain data:
// expanding a Matrix yields them, RunScenario executes them, and Records
// embed them so a results file is self-describing.
type Scenario struct {
	// Name uniquely identifies the scenario inside its matrix; Compare
	// matches old and new records by it.
	Name      string       `json:"name"`
	Topology  TopologySpec `json:"topology"`
	Algorithm string       `json:"algorithm"`
	Backend   string       `json:"backend"`
	// Bandwidth is the per-edge, per-round bit budget B.
	Bandwidth int `json:"bandwidth"`
	// Seed drives every random choice of the run (topology weights, inputs,
	// per-node streams). Matrix.Expand derives it deterministically from the
	// scenario name, so re-running a matrix reproduces each run exactly.
	Seed int64 `json:"seed"`
}

// key is the canonical identity of a scenario within a matrix.
func scenarioKey(t TopologySpec, algorithm, backend string, bandwidth int) string {
	return fmt.Sprintf("%s/%s/%s/B%d", t, algorithm, backend, bandwidth)
}

// DeriveSeed returns the deterministic per-scenario seed for a scenario key:
// a 64-bit FNV-1a hash of the key folded with the matrix base seed. Distinct
// scenarios get independent streams while identical (matrix, base) pairs
// reproduce identical runs.
func DeriveSeed(base int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return base ^ int64(h.Sum64())
}

// builtTopology is the realised network of a scenario: a map-based graph
// (plus the lower-bound network when the family is FamilyLBNet — the
// simulation backend needs its ownership structure, not just its edges), or
// a CSR built by the streaming loader when the scenario qualifies for it
// (see BuildCSR). Exactly one of Graph and CSR is set.
type builtTopology struct {
	Graph *graph.Graph
	LB    *lbnetwork.Network
	CSR   *graph.CSR
}

// topology returns the congest.Topology view the backends run over.
func (b *builtTopology) topology() congest.Topology {
	if b.CSR != nil {
		return b.CSR
	}
	return b.Graph
}

// Build realises the topology as a map-based graph. Random families draw
// from rng, so callers must seed it from Scenario.Seed for reproducibility.
func (t TopologySpec) Build(rng *rand.Rand) (*builtTopology, error) {
	if t.Family == FamilyLBNet {
		lb, err := lbnetwork.New(t.Size, t.lbPathLen())
		if err != nil {
			return nil, fmt.Errorf("exp: %v", err)
		}
		return &builtTopology{Graph: lb.Graph, LB: lb}, nil
	}
	var g *graph.Graph
	err := t.emitEdges(rng, func(n, _ int) graph.EdgeEmitter {
		g = graph.New(n)
		return g.MustAddEdge
	})
	if err != nil {
		return nil, err
	}
	if t.MaxWeight > 1 {
		g, err = graph.AssignRandomWeights(g, t.MaxWeight, rng)
		if err != nil {
			return nil, fmt.Errorf("exp: %v", err)
		}
	}
	return &builtTopology{Graph: g}, nil
}

// Streamable reports whether BuildCSR can realise the topology: a unit-weight
// family whose edges can be emitted as a flat stream. Reweighted topologies
// (MaxWeight > 1) redraw weights over the built graph's edge list, and the
// lower-bound network carries ownership structure beyond its edges, so both
// take the map-based Build route.
func (t TopologySpec) Streamable() bool {
	if t.MaxWeight > 1 {
		return false
	}
	switch t.Family {
	case FamilyPath, FamilyCycle, FamilyStar, FamilyComplete, FamilyGrid, FamilyRandom, FamilyTree:
		return true
	}
	return false
}

// BuildCSR realises a Streamable topology directly as a congest-ready CSR:
// the family's edge stream feeds graph.Builder's two counting passes over
// flat tables, so no per-vertex adjacency maps are ever materialised — the
// constructor the million-node scenarios run through. The builder reserves
// the family's edge count up front (exact for every deterministic family and
// the tree), so the stream fills arrays allocated once. Build and BuildCSR
// read the same family table (emitEdges), so a scenario produces
// bit-identical runs whichever route built its topology.
func (t TopologySpec) BuildCSR(rng *rand.Rand) (*graph.CSR, error) {
	if t.Family == FamilyLBNet || t.MaxWeight > 1 {
		return nil, fmt.Errorf("exp: topology %s is not streamable", t)
	}
	var b *graph.Builder
	err := t.emitEdges(rng, func(n, m int) graph.EdgeEmitter {
		b = graph.NewBuilder(n, m)
		return b.MustAddEdge
	})
	if err != nil {
		return nil, err
	}
	csr, err := b.Finish()
	if err != nil {
		return nil, fmt.Errorf("exp: %v", err)
	}
	return csr, nil
}

// checkSize reports a size the topology's family cannot realise: every
// family needs Size >= 2 (for lbnet, Γ >= 2), a cycle 3 vertices and a grid
// 4, and an lbnet path is at most lbnetwork.MaxPathLen long. It also
// refuses a topology the simulator could never run, before anything asks
// for its memory: more than math.MaxInt32 vertices, or more than
// math.MaxInt32/2 edges, each two directed slots of the simulator's int32
// tables. Every family but the grid realises at least Size vertices, so a
// larger Size is refused before lbnet's counts could wrap: with Γ and L
// bounded so, lbnetwork.EdgeCount stays below 8.1·10^18. An lbnet's two
// endpoint cliques make its edge count grow as Γ², so at L = 17 the first
// Γ refused is 32,754. A random topology's edges are counted as their
// expectation (randomEdges), not as the tree's n−1 that size reserves, so
// at the default p = 0.1 the first size refused is 146,535. Matrix.Validate
// and emitEdges both call it, so a spec is refused at load with the text
// its build would fail with.
func (t TopologySpec) checkSize() error {
	switch {
	case t.Size < 2:
		return fmt.Errorf("%s needs size >= 2, got %d", t.Family, t.Size)
	case t.Family == FamilyLBNet && t.Param > lbnetwork.MaxPathLen:
		return fmt.Errorf("lbnet needs a path length of at most %d, got %g", lbnetwork.MaxPathLen, t.Param)
	case t.Family == FamilyCycle && t.Size < 3:
		return fmt.Errorf("cycle needs size >= 3, got %d", t.Size)
	}
	if t.Family != FamilyGrid && t.Size > math.MaxInt32 {
		return fmt.Errorf("%s of size %d has more than %d vertices", t.Family, t.Size, math.MaxInt32)
	}
	n, m := t.size()
	if t.Family == FamilyRandom {
		m = randomEdges(n, t.randomP())
	}
	switch {
	case t.Family == FamilyGrid && n < 4:
		return fmt.Errorf("grid needs size >= 4, got %d", t.Size)
	case n > math.MaxInt32:
		return fmt.Errorf("%s of size %d has %d vertices, more than %d", t.Family, t.Size, n, math.MaxInt32)
	case m > math.MaxInt32/2:
		return fmt.Errorf("%s of size %d has %d edges, more than %d", t.Family, t.Size, m, math.MaxInt32/2)
	}
	return nil
}

// emitEdges is the family table of the plain (non-lbnet) families. It
// checks the spec, asks newGraph for a graph with the topology's size,
// and streams the family's edges into the emitter it returns, in the
// family's canonical order; the random families draw from rng as they
// stream. The spec is checked before newGraph is called, so an invalid one
// allocates nothing and both construction routes fail with the same error.
func (t TopologySpec) emitEdges(rng *rand.Rand, newGraph func(n, m int) graph.EdgeEmitter) error {
	if err := t.checkSize(); err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	n, m := t.size()
	switch t.Family {
	case FamilyPath:
		graph.EmitPath(n, newGraph(n, m))
	case FamilyCycle:
		graph.EmitCycle(n, newGraph(n, m))
	case FamilyStar:
		graph.EmitStar(n, newGraph(n, m))
	case FamilyComplete:
		graph.EmitComplete(n, newGraph(n, m))
	case FamilyGrid:
		side := gridSide(t.Size)
		graph.EmitGrid(side, side, newGraph(n, m))
	case FamilyRandom:
		graph.EmitRandomConnected(n, t.randomP(), rng, newGraph(n, m))
	case FamilyTree:
		graph.EmitSpanningTree(n, rng, newGraph(n, m))
	default:
		return fmt.Errorf("exp: unknown topology family %q", t.Family)
	}
	return nil
}

// size returns the vertex count n the topology realises and its edge count
// m. n is the largest square not above Size for a grid,
// lbnetwork.VertexCount for the lower-bound network (whose Size is the
// path count Γ), and Size otherwise. m is exact for the path (n−1), cycle
// (n), star (n−1), complete graph (n(n−1)/2), s×s grid (2s(s−1)), tree
// (n−1) and lower-bound network (lbnetwork.EdgeCount); for random it is the
// spanning tree's n−1, below the random edges added on top.
func (t TopologySpec) size() (n, m int) {
	switch t.Family {
	case FamilyGrid:
		side := gridSide(t.Size)
		return side * side, 2 * side * (side - 1)
	case FamilyLBNet:
		return lbnetwork.VertexCount(t.Size, t.lbPathLen()), lbnetwork.EdgeCount(t.Size, t.lbPathLen())
	case FamilyCycle:
		return t.Size, t.Size
	case FamilyComplete:
		return t.Size, t.Size * (t.Size - 1) / 2
	}
	return t.Size, t.Size - 1
}

// randomP is a random topology's edge probability: Param, or 0.1 when
// Param is not positive.
func (t TopologySpec) randomP() float64 {
	if t.Param > 0 {
		return t.Param
	}
	return 0.1
}

// randomEdges is the expected edge count of graph.EmitRandomConnected on n
// vertices: the spanning tree's n−1 edges and each of the other
// n(n−1)/2 − (n−1) pairs with probability p, at most 1.
func randomEdges(n int, p float64) int {
	tree, pairs := float64(n-1), float64(n)*float64(n-1)/2
	return int(tree + min(p, 1)*(pairs-tree))
}

// gridSide is the side of the largest square grid with at most size
// vertices.
func gridSide(size int) int { return int(math.Sqrt(float64(size))) }

// lbPathLen is the lower-bound network's requested path length: Param, or
// 17 when Param is unset.
func (t TopologySpec) lbPathLen() int {
	if l := int(t.Param); l > 0 {
		return l
	}
	return 17
}
