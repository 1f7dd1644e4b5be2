package exp

import (
	"fmt"
	"math/rand"
	"time"

	"qdc/internal/dist/disjointness"
	"qdc/internal/dist/engine"
	"qdc/internal/dist/flood"
	"qdc/internal/dist/mst"
	"qdc/internal/dist/verify"
	"qdc/internal/graph"
	"qdc/internal/simulation"
)

// Record is one row of a results file: the scenario that ran, the measured
// CONGEST cost, the wall-clock time, and whether the run's verdict checked
// out against its reference computation. Failed runs carry Error instead.
type Record struct {
	Scenario Scenario     `json:"scenario"`
	Stats    engine.Stats `json:"stats"`
	// WallMillis is host wall-clock time, the one field that is *not*
	// expected to reproduce across runs; Compare ignores it.
	WallMillis float64 `json:"wall_ms"`
	// OK reports whether the run's verdict matched the sequential reference
	// computation (Kruskal for MST, direct intersection for disjointness,
	// the expected answers for the verification pair).
	OK bool `json:"ok"`
	// Detail is a short human-readable account of the verdict.
	Detail string `json:"detail,omitempty"`
	// Error is the failure, panic or timeout message of an unsuccessful run.
	Error string `json:"error,omitempty"`
	// Metrics is the optional observability block, populated when the run
	// was collected with metrics enabled (ExecOptions.Metrics, qdcbench
	// -metrics). Its content is deterministic, but canonical snapshots strip
	// it (see JSONSink) so baseline files are byte-identical with metrics on
	// or off.
	Metrics *ScenarioMetrics `json:"metrics,omitempty"`
}

// Failed reports whether the record represents an unusable or wrong run.
func (r Record) Failed() bool { return r.Error != "" || !r.OK }

// nodeRounds is the record's simulated work: rounds times the realised
// vertex count.
func (r Record) nodeRounds() int64 {
	n, _ := r.Scenario.Topology.size()
	return int64(r.Stats.Rounds) * int64(n)
}

// NodeRoundsPerSec returns the record's simulation throughput in
// node-rounds per second, or 0 when the record carries no wall time (e.g.
// after canonicalisation zeroed it). It is display-only: wall time is
// host-dependent and never part of a snapshot's identity.
func NodeRoundsPerSec(r Record) float64 {
	if r.WallMillis <= 0 {
		return 0
	}
	return float64(r.nodeRounds()) / (r.WallMillis / 1000)
}

// RunScenario executes one scenario synchronously and never panics: node
// program panics surface as the record's Error. Cost accounting, inputs and
// random choices all derive from the scenario seed, so equal scenarios
// produce equal records (modulo WallMillis).
func RunScenario(s Scenario) Record { return runScenario(s, 0, nil, false) }

// runScenario is RunScenario with an explicit stepping-goroutine budget for
// the parallel backend and an optional cancellation poll. stepWorkers <= 0
// keeps the backend's GOMAXPROCS default; the executor divides cores
// between scenario-level and round-level parallelism through it, and the
// budget never changes a record's content, only how many goroutines compute
// it. A non-nil cancel is polled by the backend at every round boundary, so
// a timed-out run stops simulating instead of burning CPU until the round
// limit; a cancelled run surfaces as a Record with congest.ErrCancelled in
// its Error. With metrics set, an engine.StageObserver is installed on the
// backend and the collected ScenarioMetrics block rides on the record;
// everything else about the record is unchanged (observation only turns on
// congest's PerRound recording, which no Stats field reads).
func runScenario(s Scenario, stepWorkers int, cancel func() bool, metrics bool) (rec Record) {
	rec.Scenario = s
	start := time.Now()
	defer func() {
		rec.WallMillis = float64(time.Since(start)) / float64(time.Millisecond)
		if p := recover(); p != nil {
			rec.OK = false
			rec.Error = fmt.Sprintf("panic: %v", p)
		}
	}()

	if ok, reason := Compatible(s.Topology, s.Algorithm, s.Backend, s.Bandwidth); !ok {
		rec.Error = "exp: incompatible scenario: " + reason
		return rec
	}
	rng := rand.New(rand.NewSource(s.Seed))
	topo, err := buildTopology(s, rng)
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	runner, err := buildRunner(s, topo, stepWorkers)
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	if cancel != nil {
		if c, ok := runner.(interface{ SetCancel(func() bool) }); ok {
			c.SetCancel(cancel)
		}
	}
	var collector *metricsCollector
	if metrics {
		if o, ok := runner.(interface{ SetObserver(engine.StageObserver) }); ok {
			collector = &metricsCollector{}
			o.SetObserver(collector)
		}
	}
	defer func() {
		if collector != nil {
			rec.Metrics = collector.metrics()
		}
	}()

	switch s.Algorithm {
	case AlgVerify:
		rec.OK, rec.Detail, err = runVerify(runner, topo.Graph)
	case AlgMST:
		rec.OK, rec.Detail, err = runMST(runner, topo.Graph, 0)
	case AlgMSTApprox:
		rec.OK, rec.Detail, err = runMST(runner, topo.Graph, 2)
	case AlgDisjointness:
		rec.OK, rec.Detail, err = runDisjointness(runner, rng)
	case AlgFlood:
		rec.OK, rec.Detail, err = runFlood(runner, topo)
	default:
		err = fmt.Errorf("exp: unknown algorithm %q", s.Algorithm)
	}
	rec.Stats = runner.Stats()
	if err != nil {
		rec.OK = false
		rec.Error = err.Error()
		return rec
	}
	if sim, ok := runner.(*simulation.Runner); ok {
		rep := sim.Report()
		rec.Detail += fmt.Sprintf("; server_cost=%d within_budget=%v", rep.ServerModelCost, rep.WithinRoundBudget)
	}
	if qr, ok := runner.(*engine.Quantum); ok {
		rep := qr.Report()
		rec.Detail += fmt.Sprintf("; grover: b=%d D=%d quantum_rounds=%d classical_rounds=%d",
			rep.LastStage.StreamBits, rep.Diameter, rep.Quantum.Rounds, rep.Classical.Rounds)
	}
	return rec
}

// buildTopology realises the scenario's network. Flood scenarios on
// streamable families take the streaming CSR route — built from flat tables
// with no adjacency maps, which is what keeps million-node runs inside
// memory — while every other combination keeps the map-based Build. The two
// routes consume the scenario rng identically and yield identical neighbour
// orders, so which one ran is invisible in the record.
func buildTopology(s Scenario, rng *rand.Rand) (*builtTopology, error) {
	if s.Algorithm == AlgFlood && s.Topology.Streamable() {
		csr, err := s.Topology.BuildCSR(rng)
		if err != nil {
			return nil, err
		}
		return &builtTopology{CSR: csr}, nil
	}
	return s.Topology.Build(rng)
}

// buildRunner constructs the scenario's backend over the built topology.
func buildRunner(s Scenario, topo *builtTopology, stepWorkers int) (engine.Runner, error) {
	switch s.Backend {
	case BackendLocal:
		return engine.NewLocal(topo.topology(), s.Bandwidth, s.Seed)
	case BackendParallel:
		r, err := engine.NewParallel(topo.topology(), s.Bandwidth, s.Seed)
		if err == nil && stepWorkers > 0 {
			r.SetWorkers(stepWorkers)
		}
		return r, err
	case BackendSimulation:
		// Compatible has already pinned the family to FamilyLBNet, so
		// topo.LB is set; NewRunner still rejects a nil network itself.
		return simulation.NewRunner(topo.LB, s.Bandwidth, s.Seed)
	case BackendQuantum:
		return engine.NewQuantum(topo.topology(), s.Bandwidth, s.Seed)
	default:
		return nil, fmt.Errorf("exp: unknown backend %q", s.Backend)
	}
}

// runVerify exercises the distributed spanning-tree verifier on one
// positive instance (a reference MST of the network) and one negative
// instance (the same tree with its first edge removed); the run is OK when
// both network-wide verdicts are correct.
func runVerify(r engine.Runner, g *graph.Graph) (bool, string, error) {
	tree, _ := g.KruskalMST()
	if len(tree) == 0 {
		return false, "", fmt.Errorf("exp: verify needs a topology with at least one edge")
	}
	m := graph.NewEdgeSetFrom(tree)
	pos, err := verify.SpanningTree(r, g, m)
	if err != nil {
		return false, "", err
	}
	broken := m.Clone()
	broken.Remove(tree[0].U, tree[0].V)
	neg, err := verify.SpanningTree(r, g, broken)
	if err != nil {
		return false, "", err
	}
	ok := pos.Answer && !neg.Answer
	detail := fmt.Sprintf("spanning-tree verdicts: intact=%v broken=%v", pos.Answer, neg.Answer)
	return ok, detail, nil
}

// runMST builds a distributed MST (exact for alpha 0, rounded-weight
// otherwise) and validates it against Kruskal: a spanning forest of the
// right size whose weight is within the approximation guarantee.
func runMST(r engine.Runner, g *graph.Graph, alpha float64) (bool, string, error) {
	ref, refWeight := g.KruskalMST()
	res, err := mst.Run(r, g, mst.Config{Alpha: alpha})
	if err != nil {
		return false, "", err
	}
	bound := refWeight
	if alpha > 1 {
		bound = alpha * refWeight
	}
	ok := len(res.Tree) == len(ref) && res.OriginalWeight <= bound*(1+1e-9)
	detail := fmt.Sprintf("tree weight %.1f vs optimum %.1f (bound %.1f)", res.OriginalWeight, refWeight, bound)
	return ok, detail, nil
}

// runFlood floods from vertex 0 and checks every node's adopted hop
// distance against a sequential BFS — over the CSR when the streaming
// loader built the topology, over the graph otherwise. The comparison is a
// plain loop (not reflection) because the scale matrices run this on
// 100k+-node graphs.
func runFlood(r engine.Runner, topo *builtTopology) (bool, string, error) {
	res, err := flood.Run(r, 0)
	if err != nil {
		return false, "", err
	}
	var want []int
	if topo.CSR != nil {
		want = topo.CSR.BFSDist(0)
	} else {
		want = topo.Graph.BFS(0).Dist
	}
	mismatches, ecc := 0, 0
	for v, d := range res.Dist {
		if d != want[v] {
			mismatches++
		}
		if d > ecc {
			ecc = d
		}
	}
	detail := fmt.Sprintf("flooded %d nodes, ecc(0)=%d, rounds=%d", len(res.Dist), ecc, res.Rounds)
	if mismatches > 0 {
		detail += fmt.Sprintf("; %d distances disagree with BFS", mismatches)
	}
	return mismatches == 0, detail, nil
}

// DisjointnessInputBits is the input size rule of the disjointness
// scenarios: b = 8B, so the pipelining term ⌈b/B⌉ = 8 is bandwidth-
// independent and the classical-vs-quantum crossover moves with B alone.
// CrossoverReport relies on this rule to reconstruct b from a record.
func DisjointnessInputBits(bandwidth int) int { return 8 * bandwidth }

// runDisjointness draws two b-bit sets with b = 8B (so pipelining dominates
// the diameter term), runs the pipelined path protocol, and checks the
// network's verdict against the direct intersection.
func runDisjointness(r engine.Runner, rng *rand.Rand) (bool, string, error) {
	b := DisjointnessInputBits(r.Bandwidth())
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
	res, err := disjointness.RunOn(r, x, y)
	if err != nil {
		return false, "", err
	}
	ok := res.Disjoint == !intersect
	detail := fmt.Sprintf("b=%d verdict=%v want=%v rounds=%d (Θ(D+b/B)=%d)",
		b, res.Disjoint, !intersect, res.Rounds, disjointness.ClassicalRounds(b, r.Bandwidth(), r.Size()-1))
	return ok, detail, nil
}
