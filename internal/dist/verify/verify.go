// Package verify implements the distributed subgraph verification problems
// of Section 2.2 of the paper as genuine CONGEST node programs executed
// through the engine.Runner abstraction: every node knows only which of its
// incident edges belong to the candidate subnetwork M, all coordination
// happens by O(log n)-bit messages, and the network-wide verdict is the
// output.
//
// All seven verifiers share the same machinery: a component-labelling stage
// (minimum-ID flooding along M, Θ(n) rounds), an optional BFS-layer
// 2-colouring stage, and an O(D)-round BFS-tree aggregation stage that
// combines one flag and three counters and broadcasts the verdict. The
// degree-two check uses only the aggregation stage, which is why it finishes
// in O(D) rounds and fits the L/2 − 2 round budget of the Quantum Simulation
// Theorem (Theorem 3.5) — the property qdc.RunProofPipeline and
// internal/simulation rely on. The full verifiers genuinely need the
// labelling stage and therefore exceed that budget, exactly as the paper's
// Ω̃(√n) lower bounds predict.
package verify

import (
	"errors"
	"fmt"

	"qdc/internal/dist/engine"
	"qdc/internal/graph"
)

// ErrBadInput reports a verification call with missing inputs.
var ErrBadInput = errors.New("verify: nil graph or edge set")

// Outcome is the result of one distributed verification: the network-wide
// verdict and the communication cost the algorithm incurred on its runner.
type Outcome struct {
	// Answer is the verdict every node agreed on.
	Answer bool
	// Stats is the cost of this verification alone (runner stats may also
	// include earlier algorithms run on the same runner).
	Stats engine.Stats
}

// run executes the stages of one verifier and wraps the verdict with the
// runner-stat delta attributable to it.
func run(r engine.Runner, g *graph.Graph, m *graph.EdgeSet,
	algo func(mAdj [][]int) (bool, error)) (*Outcome, error) {
	if r == nil || g == nil || m == nil {
		return nil, ErrBadInput
	}
	if g.N() != r.Size() {
		return nil, fmt.Errorf("%w: graph has %d nodes but runner has %d", ErrBadInput, g.N(), r.Size())
	}
	before := r.Stats()
	answer, err := algo(mAdjacency(g, m))
	if err != nil {
		return nil, err
	}
	return &Outcome{Answer: answer, Stats: r.Stats().Sub(before)}, nil
}

// DegreeTwoCheck verifies that every node has exactly two incident M-edges.
// It is the O(D)-round opening move of the paper's Ham and MST reductions:
// a single aggregation suffices, so the check completes well within the
// L/2 − 2 simulation budget and its Server-model cost is O(B·log L) per
// round under the three-party accounting.
func DegreeTwoCheck(r engine.Runner, g *graph.Graph, m *graph.EdgeSet) (*Outcome, error) {
	return run(r, g, m, func(mAdj [][]int) (bool, error) {
		return runAggregate(r, g,
			func(v int) agg { return agg{OK: len(mAdj[v]) == 2} },
			func(a agg) bool { return a.OK })
	})
}

// localCounts is the shared per-node aggregate contribution of the
// label-based verifiers.
func localCounts(mAdj [][]int, labels []int, ok func(v int) bool) func(int) agg {
	return func(v int) agg {
		deg := len(mAdj[v])
		a := agg{OK: ok(v), Degree: deg}
		if deg > 0 {
			a.Supported = 1
			if labels[v] == v {
				a.Leaders = 1
			}
		}
		return a
	}
}

// HamiltonianCycle verifies that M is a Hamiltonian cycle of the network:
// every node has M-degree exactly two and M has a single connected
// component.
func HamiltonianCycle(r engine.Runner, g *graph.Graph, m *graph.EdgeSet) (*Outcome, error) {
	return run(r, g, m, func(mAdj [][]int) (bool, error) {
		labels, err := runLabels(r, mAdj)
		if err != nil {
			return false, err
		}
		return runAggregate(r, g,
			localCounts(mAdj, labels, func(v int) bool { return len(mAdj[v]) == 2 }),
			func(a agg) bool { return a.OK && a.Leaders == 1 })
	})
}

// SpanningConnectedSubgraph verifies that M touches every node and has a
// single connected component.
func SpanningConnectedSubgraph(r engine.Runner, g *graph.Graph, m *graph.EdgeSet) (*Outcome, error) {
	return run(r, g, m, func(mAdj [][]int) (bool, error) {
		labels, err := runLabels(r, mAdj)
		if err != nil {
			return false, err
		}
		return runAggregate(r, g,
			localCounts(mAdj, labels, func(v int) bool { return len(mAdj[v]) >= 1 }),
			func(a agg) bool { return a.OK && a.Leaders == 1 })
	})
}

// Connectivity verifies that M is connected, i.e. that the nodes it touches
// form at most one component (an empty M is vacuously connected).
func Connectivity(r engine.Runner, g *graph.Graph, m *graph.EdgeSet) (*Outcome, error) {
	return run(r, g, m, func(mAdj [][]int) (bool, error) {
		labels, err := runLabels(r, mAdj)
		if err != nil {
			return false, err
		}
		return runAggregate(r, g,
			localCounts(mAdj, labels, func(v int) bool { return true }),
			func(a agg) bool { return a.Leaders <= 1 })
	})
}

// SpanningTree verifies that M is a spanning tree of the network: it
// touches every node, has one component, and has exactly n−1 edges.
func SpanningTree(r engine.Runner, g *graph.Graph, m *graph.EdgeSet) (*Outcome, error) {
	n := r.Size()
	return run(r, g, m, func(mAdj [][]int) (bool, error) {
		labels, err := runLabels(r, mAdj)
		if err != nil {
			return false, err
		}
		return runAggregate(r, g,
			localCounts(mAdj, labels, func(v int) bool { return len(mAdj[v]) >= 1 }),
			func(a agg) bool { return a.OK && a.Leaders == 1 && a.Degree == 2*(n-1) })
	})
}

// Bipartiteness verifies that M contains no odd cycle, via BFS-layer parity
// colouring of each M-component.
func Bipartiteness(r engine.Runner, g *graph.Graph, m *graph.EdgeSet) (*Outcome, error) {
	return run(r, g, m, func(mAdj [][]int) (bool, error) {
		labels, err := runLabels(r, mAdj)
		if err != nil {
			return false, err
		}
		conflicts, err := runColors(r, mAdj, labels)
		if err != nil {
			return false, err
		}
		return runAggregate(r, g,
			func(v int) agg { return agg{OK: !conflicts[v]} },
			func(a agg) bool { return a.OK })
	})
}

// CycleContainment verifies that M contains at least one cycle: M is not a
// forest exactly when it has more edges than (touched vertices − components).
func CycleContainment(r engine.Runner, g *graph.Graph, m *graph.EdgeSet) (*Outcome, error) {
	return run(r, g, m, func(mAdj [][]int) (bool, error) {
		labels, err := runLabels(r, mAdj)
		if err != nil {
			return false, err
		}
		return runAggregate(r, g,
			localCounts(mAdj, labels, func(v int) bool { return true }),
			func(a agg) bool { return a.Degree/2 > a.Supported-a.Leaders })
	})
}
