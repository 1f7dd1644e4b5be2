package main

import (
	"fmt"
	"math/rand"
	"slices"

	"qdc/internal/congest"
	"qdc/internal/dist/disjointness"
	"qdc/internal/dist/engine"
	"qdc/internal/dist/flood"
	"qdc/internal/dist/mst"
	"qdc/internal/dist/verify"
	"qdc/internal/exp"
	"qdc/internal/graph"
	"qdc/internal/lbnetwork"
	"qdc/internal/simulation"
)

// newRunner builds the scenario's backend. It is the one place the
// benchmark constructs runners, so the flood-grid-par workload's round
// stepping (a Parallel runner with its worker count set) changes in one line
// when the parallel backend folds into Local.
func newRunner(s exp.Scenario, topo congest.Topology, lb *lbnetwork.Network, stepWorkers int) (engine.Runner, error) {
	switch s.Backend {
	case exp.BackendLocal:
		return engine.NewLocal(topo, s.Bandwidth, s.Seed)
	case exp.BackendParallel:
		r, err := engine.NewParallel(topo, s.Bandwidth, s.Seed)
		if err == nil && stepWorkers > 0 {
			r.SetWorkers(stepWorkers)
		}
		return r, err
	case exp.BackendSimulation:
		return simulation.NewRunner(lb, s.Bandwidth, s.Seed)
	case exp.BackendQuantum:
		return engine.NewQuantum(topo, s.Bandwidth, s.Seed)
	}
	return nil, fmt.Errorf("perfbench: unknown backend %q", s.Backend)
}

// outcome is one composed scenario run: the record fields exp.Compare and
// the drift guard read (Stats, OK, Error), plus what the flood workloads
// check beyond them.
type outcome struct {
	rec exp.Record
	// dist is the flood's per-vertex hop distance (flood scenarios only).
	dist []int
}

// runScenario re-executes one scenario from the same public calls
// exp.RunScenario composes — topology build, runner constructor, the dist
// entry point, then the reference check — timing each layer call into tr
// when tr is non-nil. The drift guard in the tests pins Stats and OK to
// exp.RunScenario's for every scenario the workloads run; Detail strings are
// not reproduced.
func runScenario(s exp.Scenario, stepWorkers int, tr *tracer) (out outcome) {
	out.rec.Scenario = s
	defer func() {
		if p := recover(); p != nil {
			out.rec.OK = false
			out.rec.Error = fmt.Sprintf("panic: %v", p)
		}
	}()
	fail := func(err error) outcome {
		out.rec.OK = false
		out.rec.Error = err.Error()
		return out
	}

	if ok, reason := exp.Compatible(s.Topology, s.Algorithm, s.Backend, s.Bandwidth); !ok {
		return fail(fmt.Errorf("exp: incompatible scenario: %s", reason))
	}
	rng := rand.New(rand.NewSource(s.Seed))
	var (
		topo congest.Topology
		g    *graph.Graph
		csr  *graph.CSR
		lb   *lbnetwork.Network
	)
	buildSpan := spanGraphBuild
	if s.Topology.Family == exp.FamilyLBNet {
		buildSpan = spanLBNetBuild
	}
	t0 := tr.now()
	if s.Algorithm == exp.AlgFlood && s.Topology.Streamable() {
		c, err := s.Topology.BuildCSR(rng)
		if err != nil {
			return fail(err)
		}
		csr, topo = c, c
	} else {
		b, err := s.Topology.Build(rng)
		if err != nil {
			return fail(err)
		}
		g, lb, topo = b.Graph, b.LB, b.Graph
	}
	tr.since(buildSpan, t0)

	t0 = tr.now()
	runner, err := newRunner(s, topo, lb, stepWorkers)
	tr.since(spanRunnerNew, t0)
	if err != nil {
		return fail(err)
	}
	r := runner
	if tr != nil {
		r = &timedRunner{Runner: runner, tr: tr, kind: stageKind(runner)}
	}

	var ok bool
	switch s.Algorithm {
	case exp.AlgVerify:
		ok, err = composeVerify(r, g, tr)
	case exp.AlgMST:
		ok, err = composeMST(r, g, 0, tr)
	case exp.AlgMSTApprox:
		ok, err = composeMST(r, g, 2, tr)
	case exp.AlgDisjointness:
		ok, err = composeDisjointness(r, rng, tr)
	case exp.AlgFlood:
		ok, out.dist, err = composeFlood(r, g, csr, tr)
	default:
		err = fmt.Errorf("exp: unknown algorithm %q", s.Algorithm)
	}
	out.rec.Stats = runner.Stats()
	if err != nil {
		return fail(err)
	}
	out.rec.OK = ok
	return out
}

func composeVerify(r engine.Runner, g *graph.Graph, tr *tracer) (bool, error) {
	t0 := tr.now()
	tree, _ := g.KruskalMST()
	tr.since(spanGraphCheck, t0)
	if len(tree) == 0 {
		return false, fmt.Errorf("exp: verify needs a topology with at least one edge")
	}
	m := graph.NewEdgeSetFrom(tree)
	t0 = tr.now()
	pos, err := verify.SpanningTree(r, g, m)
	tr.since(spanDistVerify, t0)
	if err != nil {
		return false, err
	}
	broken := m.Clone()
	broken.Remove(tree[0].U, tree[0].V)
	t0 = tr.now()
	neg, err := verify.SpanningTree(r, g, broken)
	tr.since(spanDistVerify, t0)
	if err != nil {
		return false, err
	}
	return pos.Answer && !neg.Answer, nil
}

func composeMST(r engine.Runner, g *graph.Graph, alpha float64, tr *tracer) (bool, error) {
	t0 := tr.now()
	ref, refWeight := g.KruskalMST()
	tr.since(spanGraphCheck, t0)
	t0 = tr.now()
	res, err := mst.Run(r, g, mst.Config{Alpha: alpha})
	tr.since(spanDistMST, t0)
	if err != nil {
		return false, err
	}
	bound := refWeight
	if alpha > 1 {
		bound = alpha * refWeight
	}
	return len(res.Tree) == len(ref) && res.OriginalWeight <= bound*(1+1e-9), nil
}

// composeDisjointness draws the inputs exactly as exp does — b = 8B bits
// per player, each set with probability 0.05 from the scenario rng after the
// topology build — and checks the verdict against the direct intersection.
func composeDisjointness(r engine.Runner, rng *rand.Rand, tr *tracer) (bool, error) {
	b := exp.DisjointnessInputBits(r.Bandwidth())
	x := make([]int, b)
	y := make([]int, b)
	intersect := false
	for i := range x {
		if rng.Float64() < 0.05 {
			x[i] = 1
		}
		if rng.Float64() < 0.05 {
			y[i] = 1
		}
		if x[i] == 1 && y[i] == 1 {
			intersect = true
		}
	}
	t0 := tr.now()
	res, err := disjointness.RunOn(r, x, y)
	tr.since(spanDistDisjointness, t0)
	if err != nil {
		return false, err
	}
	return res.Disjoint == !intersect, nil
}

func composeFlood(r engine.Runner, g *graph.Graph, csr *graph.CSR, tr *tracer) (bool, []int, error) {
	t0 := tr.now()
	res, err := flood.Run(r, 0)
	tr.since(spanDistFlood, t0)
	if err != nil {
		return false, nil, err
	}
	t0 = tr.now()
	defer tr.since(spanGraphCheck, t0)
	var want []int
	if csr != nil {
		want = csr.BFSDist(0)
	} else {
		want = g.BFS(0).Dist
	}
	return slices.Equal(res.Dist, want), res.Dist, nil
}
