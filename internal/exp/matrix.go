package exp

import (
	"fmt"
	"sort"

	"qdc/internal/congest"
	"qdc/internal/dist/engine"
)

// Matrix is a declarative sweep spec: the cross product of its axes, minus
// the combinations that are structurally impossible (see Compatible),
// expands into concrete scenarios with deterministic per-scenario seeds.
type Matrix struct {
	Name       string         `json:"name"`
	Topologies []TopologySpec `json:"topologies"`
	Bandwidths []int          `json:"bandwidths"`
	Backends   []string       `json:"backends"`
	Algorithms []string       `json:"algorithms"`
	// BaseSeed is folded into every derived scenario seed; two expansions
	// with the same base produce identical runs.
	BaseSeed int64 `json:"base_seed"`
}

// Compatible reports whether the combination can execute at all, and the
// constraint it violates when it cannot:
//
//   - AlgDisjointness runs a pipelined path protocol, so it needs
//     FamilyPath and a non-simulation backend;
//   - BackendSimulation re-accounts messages on the lower-bound network,
//     so it needs FamilyLBNet;
//   - BackendQuantum re-accounts with the Grover substitution, which the
//     paper licenses only for the Set Disjointness family (for everything
//     else the Ω̃(√n + D) lower bounds survive quantumly), so it needs
//     AlgDisjointness;
//   - AlgMST (exact) sends full weight words, so the bandwidth must carry
//     the widest candidate message for the topology's size.
//
// Matrix.Expand silently skips incompatible cells, which is what lets the
// axes stay orthogonal while e.g. disjointness appears in the same matrix
// as MST.
func Compatible(t TopologySpec, algorithm, backend string, bandwidth int) (bool, string) {
	if algorithm == AlgDisjointness {
		if t.Family != FamilyPath {
			return false, "disjointness needs a path topology"
		}
		if backend == BackendSimulation {
			return false, "disjointness cannot run under the simulation backend"
		}
	}
	if backend == BackendSimulation && t.Family != FamilyLBNet {
		return false, "the simulation backend needs the lower-bound network"
	}
	if backend == BackendQuantum && algorithm != AlgDisjointness {
		return false, "the quantum backend re-accounts only the disjointness protocol"
	}
	// IDs are sized by the vertex count the topology realises, as the node
	// programs and mst.Run size them.
	n, _ := t.size()
	if algorithm == AlgFlood {
		if backend == BackendSimulation {
			return false, "flood does not run under the simulation backend"
		}
		// One distance announcement: tag + a distance that can reach n-1.
		need := engine.TagBits + congest.BitsForID(n)
		if bandwidth < need {
			return false, fmt.Sprintf("flood needs %d bits per round, bandwidth is %d", need, bandwidth)
		}
	}
	if algorithm == AlgMST {
		// Widest exact-MST message: tag + has-flag + two IDs + weight word.
		need := engine.TagBits + congest.BitsForBool + 2*congest.BitsForID(n) + congest.BitsForWeight
		if bandwidth < need {
			return false, fmt.Sprintf("exact MST needs %d bits per round, bandwidth is %d", need, bandwidth)
		}
	}
	return true, ""
}

// Expand returns the concrete scenarios of the matrix in a deterministic
// order with deterministic seeds.
func (m Matrix) Expand() []Scenario {
	var out []Scenario
	for _, topo := range m.Topologies {
		for _, algo := range m.Algorithms {
			for _, backend := range m.Backends {
				for _, bw := range m.Bandwidths {
					if ok, _ := Compatible(topo, algo, backend, bw); !ok {
						continue
					}
					key := scenarioKey(topo, algo, backend, bw)
					out = append(out, Scenario{
						Name:      key,
						Topology:  topo,
						Algorithm: algo,
						Backend:   backend,
						Bandwidth: bw,
						Seed:      DeriveSeed(m.BaseSeed, key),
					})
				}
			}
		}
	}
	return out
}

// matrices is the registry of named sweeps cmd/qdcbench exposes via -matrix.
var matrices = map[string]Matrix{
	// quick is the smoke-test sweep: small networks, three backends, every
	// algorithm class. CI runs it on every push.
	"quick": {
		Name: "quick",
		Topologies: []TopologySpec{
			{Family: FamilyPath, Size: 9},
			{Family: FamilyCycle, Size: 8},
			{Family: FamilyRandom, Size: 12, Param: 0.3, MaxWeight: 16},
		},
		Bandwidths: []int{32},
		Backends:   []string{BackendLocal, BackendParallel, BackendQuantum},
		Algorithms: []string{AlgVerify, AlgMSTApprox, AlgDisjointness},
		BaseSeed:   1,
	},
	// default is the standing BENCH sweep: every topology family, both
	// bandwidth regimes, all four backends, all four algorithms. The short
	// path5 exists so the disjointness local/quantum pairs probe a small
	// diameter as well as path33's large one.
	"default": {
		Name: "default",
		Topologies: []TopologySpec{
			{Family: FamilyPath, Size: 5},
			{Family: FamilyPath, Size: 33},
			{Family: FamilyCycle, Size: 32},
			{Family: FamilyStar, Size: 24},
			{Family: FamilyGrid, Size: 36},
			{Family: FamilyRandom, Size: 40, Param: 0.15, MaxWeight: 64},
			{Family: FamilyTree, Size: 48, MaxWeight: 1024},
			{Family: FamilyLBNet, Size: 6, Param: 17},
		},
		Bandwidths: []int{32, 128},
		Backends:   []string{BackendLocal, BackendParallel, BackendSimulation, BackendQuantum},
		Algorithms: []string{AlgVerify, AlgMST, AlgMSTApprox, AlgDisjointness},
		BaseSeed:   1,
	},
	// scale pushes the same families to the sizes where the parallel
	// backend's per-round fan-out pays off.
	"scale": {
		Name: "scale",
		Topologies: []TopologySpec{
			{Family: FamilyPath, Size: 129},
			{Family: FamilyCycle, Size: 128},
			{Family: FamilyGrid, Size: 144},
			{Family: FamilyRandom, Size: 128, Param: 0.06, MaxWeight: 256},
			{Family: FamilyTree, Size: 160, MaxWeight: 4096},
			{Family: FamilyLBNet, Size: 10, Param: 33},
		},
		Bandwidths: []int{64, 256},
		Backends:   []string{BackendLocal, BackendParallel, BackendSimulation, BackendQuantum},
		Algorithms: []string{AlgVerify, AlgMST, AlgMSTApprox, AlgDisjointness},
		BaseSeed:   1,
	},
	// roundbench holds the flood cells of the round-loop microbenchmarks in
	// internal/congest: the same workload shapes, sized for CI, run through
	// the regular scenario pipeline. Every cell checks each distance against
	// a BFS, and TestRoundbenchMatrixRuns pins their rounds, messages and
	// bits. The grid102400 cell is the n=100k workload whose wall time,
	// throughput and peak heap the repository benchmark's flood-grid
	// workload measures (perfbench/README.md).
	"roundbench": {
		Name: "roundbench",
		Topologies: []TopologySpec{
			{Family: FamilyPath, Size: 1025},
			{Family: FamilyGrid, Size: 4096},
			{Family: FamilyGrid, Size: 102_400},
		},
		Bandwidths: []int{64},
		Backends:   []string{BackendLocal, BackendParallel},
		Algorithms: []string{AlgFlood},
		BaseSeed:   1,
	},
	// scale-xl is the 100k+-node sweep the allocation-free round loop
	// unlocked: flooding on path and grid at n >= 100k, local vs parallel,
	// topped by the million-node grid the streaming CSR loader and the
	// word-encoded flood payloads exist for (its ~2000-round eccentricity
	// needs an explicit -timeout of several minutes). It is deliberately
	// absent from quick/default (and from CI) — run it explicitly with
	// -matrix scale-xl when chasing round-loop throughput.
	"scale-xl": {
		Name: "scale-xl",
		Topologies: []TopologySpec{
			{Family: FamilyPath, Size: 100_001},
			{Family: FamilyGrid, Size: 102_400},
			{Family: FamilyGrid, Size: 1_000_000},
		},
		Bandwidths: []int{64},
		Backends:   []string{BackendLocal, BackendParallel},
		Algorithms: []string{AlgFlood},
		BaseSeed:   1,
	},
	// crossover is the Example 1.1 sweep: disjointness only, local vs
	// quantum on paths whose diameters straddle the predicted crossover
	// (with b = 8B the crossover diameter is 4 at B=1 and 2 at B=4/B=8, so
	// both sides of the separation appear on every bandwidth).
	"crossover": {
		Name: "crossover",
		Topologies: []TopologySpec{
			{Family: FamilyPath, Size: 2},
			{Family: FamilyPath, Size: 3},
			{Family: FamilyPath, Size: 4},
			{Family: FamilyPath, Size: 5},
			{Family: FamilyPath, Size: 9},
			{Family: FamilyPath, Size: 17},
			{Family: FamilyPath, Size: 33},
		},
		Bandwidths: []int{1, 4, 8},
		Backends:   []string{BackendLocal, BackendQuantum},
		Algorithms: []string{AlgDisjointness},
		BaseSeed:   1,
	},
}

// LookupMatrix returns the named matrix from the registry.
func LookupMatrix(name string) (Matrix, bool) {
	m, ok := matrices[name]
	return m, ok
}

// MatrixNames returns the registered matrix names, sorted.
func MatrixNames() []string {
	names := make([]string, 0, len(matrices))
	for name := range matrices {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
