package verify_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"qdc/internal/congest"
	"qdc/internal/dist/engine"
	"qdc/internal/dist/verify"
	"qdc/internal/graph"
	"qdc/internal/lbnetwork"
	"qdc/internal/simulation"
)

func localRunner(t *testing.T, g *graph.Graph) engine.Runner {
	t.Helper()
	r, err := engine.NewLocal(g, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func edgeSetOf(g *graph.Graph) *graph.EdgeSet {
	return graph.NewEdgeSetFrom(g.Edges())
}

type verifier func(engine.Runner, *graph.Graph, *graph.EdgeSet) (*verify.Outcome, error)

// check runs one verifier on a fresh runner and asserts the verdict.
func check(t *testing.T, name string, fn verifier, g *graph.Graph, m *graph.EdgeSet, want bool) {
	t.Helper()
	out, err := fn(localRunner(t, g), g, m)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if out.Answer != want {
		t.Fatalf("%s = %v, want %v", name, out.Answer, want)
	}
	if out.Stats.Rounds <= 0 || out.Stats.Messages <= 0 || out.Stats.Bits <= 0 {
		t.Fatalf("%s: empty accounting: %+v", name, out.Stats)
	}
}

func TestVerifiersOnFullCycle(t *testing.T) {
	g, err := graph.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	m := edgeSetOf(g) // M = the whole 6-cycle
	check(t, "DegreeTwoCheck", verify.DegreeTwoCheck, g, m, true)
	check(t, "HamiltonianCycle", verify.HamiltonianCycle, g, m, true)
	check(t, "SpanningConnectedSubgraph", verify.SpanningConnectedSubgraph, g, m, true)
	check(t, "Connectivity", verify.Connectivity, g, m, true)
	check(t, "SpanningTree", verify.SpanningTree, g, m, false) // n edges, not n-1
	check(t, "CycleContainment", verify.CycleContainment, g, m, true)
	check(t, "Bipartiteness", verify.Bipartiteness, g, m, true) // even cycle
}

func TestVerifiersOnHamiltonianPath(t *testing.T) {
	g, err := graph.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	m := edgeSetOf(g)
	m.Remove(5, 0) // drop one edge: M is now a Hamiltonian path
	check(t, "DegreeTwoCheck", verify.DegreeTwoCheck, g, m, false)
	check(t, "HamiltonianCycle", verify.HamiltonianCycle, g, m, false)
	check(t, "SpanningConnectedSubgraph", verify.SpanningConnectedSubgraph, g, m, true)
	check(t, "Connectivity", verify.Connectivity, g, m, true)
	check(t, "SpanningTree", verify.SpanningTree, g, m, true) // path = spanning tree
	check(t, "CycleContainment", verify.CycleContainment, g, m, false)
	check(t, "Bipartiteness", verify.Bipartiteness, g, m, true)
}

func TestVerifiersOnOddCyclesAndDisconnection(t *testing.T) {
	// Two triangles {0,1,2} and {3,4,5} joined by the bridge 2-3; M is the
	// two triangles only.
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}} {
		g.MustAddEdge(e[0], e[1], 1)
	}
	m := graph.NewEdgeSet()
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		m.Add(e[0], e[1])
	}
	check(t, "DegreeTwoCheck", verify.DegreeTwoCheck, g, m, true)
	check(t, "HamiltonianCycle", verify.HamiltonianCycle, g, m, false) // two components
	check(t, "SpanningConnectedSubgraph", verify.SpanningConnectedSubgraph, g, m, false)
	check(t, "Connectivity", verify.Connectivity, g, m, false)
	check(t, "SpanningTree", verify.SpanningTree, g, m, false)
	check(t, "CycleContainment", verify.CycleContainment, g, m, true)
	check(t, "Bipartiteness", verify.Bipartiteness, g, m, false) // odd cycles
}

func TestVerifiersOnEmptySubnetwork(t *testing.T) {
	g := graph.Complete(5)
	m := graph.NewEdgeSet()
	check(t, "Connectivity", verify.Connectivity, g, m, true) // vacuously
	check(t, "SpanningConnectedSubgraph", verify.SpanningConnectedSubgraph, g, m, false)
	check(t, "CycleContainment", verify.CycleContainment, g, m, false)
	check(t, "DegreeTwoCheck", verify.DegreeTwoCheck, g, m, false)
}

// TestDegreeCheckOnDenserRunner hands the degree-two check a runner whose
// topology has more edges than the graph it is given. The aggregation
// stage's BFS runs on the runner's topology, and the verdict, a function of
// M's degrees alone, is the one the graph's own runner gives.
func TestDegreeCheckOnDenserRunner(t *testing.T) {
	g, err := graph.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	out, err := verify.DegreeTwoCheck(localRunner(t, graph.Complete(6)), g, edgeSetOf(g))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Answer {
		t.Fatal("DegreeTwoCheck = false on a runner over K6 for M = the 6-cycle, want true")
	}
}

func TestNilInputsRejected(t *testing.T) {
	g := graph.Path(3)
	if _, err := verify.DegreeTwoCheck(nil, g, graph.NewEdgeSet()); err == nil {
		t.Fatal("nil runner accepted")
	}
	if _, err := verify.DegreeTwoCheck(localRunner(t, g), nil, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}

// The degree-two check uses a single O(D)-round aggregation, so on a
// low-diameter graph it must finish in far fewer rounds than the
// label-propagation verifiers, which genuinely pay Θ(n).
func TestDegreeCheckIsDiameterBound(t *testing.T) {
	g := graph.Grid(8, 8) // n=64, D=14
	m := edgeSetOf(g)
	deg, err := verify.DegreeTwoCheck(localRunner(t, g), g, m)
	if err != nil {
		t.Fatal(err)
	}
	ham, err := verify.HamiltonianCycle(localRunner(t, g), g, m)
	if err != nil {
		t.Fatal(err)
	}
	if deg.Stats.Rounds >= g.N() {
		t.Fatalf("degree check took %d rounds on n=%d, D=%d", deg.Stats.Rounds, g.N(), g.Diameter())
	}
	if ham.Stats.Rounds <= deg.Stats.Rounds {
		t.Fatalf("full verification (%d rounds) should cost more than the degree check (%d rounds)",
			ham.Stats.Rounds, deg.Stats.Rounds)
	}
}

// stageRecorder is an engine.StageObserver that keeps a copy of every
// stage's Result.
type stageRecorder struct{ stages []congest.Result }

func (s *stageRecorder) StageDone(res *congest.Result) {
	stage := *res
	stage.PerRound = slices.Clone(res.PerRound)
	s.stages = append(s.stages, stage)
}

// summary prints a Result's scalar fields and the lengths of its slices.
func summary(r congest.Result) string {
	return fmt.Sprintf("rounds %d, terminated %v, %d messages, %d bits, %d qubits, %d max edge bits, %d per-round entries",
		r.Rounds, r.Terminated, r.TotalMessages, r.TotalBits, r.QuantumBits, r.MaxEdgeBitsPerRound, len(r.PerRound))
}

// Acceptance criterion of the dist layer: the paper's three cost models are
// one execution charged three ways. The degree-two check runs the same
// stages under the plain, the Theorem 3.5 and the Grover-accounted backend:
// every stage's Result is equal field for field, per-round traffic
// included, every backend accepts M, and the classical Stats the three keep
// are equal. Under the
// simulation backend it charges Server-model cost consistent with Theorem
// 3.5 — at most the O(B·log L) per-round bound, within the L/2 − 2 round
// budget.
func TestDegreeCheckUnderEveryCostModel(t *testing.T) {
	nw, err := lbnetwork.New(8, 257)
	if err != nil {
		t.Fatal(err)
	}
	ec, ed, err := graph.CyclePairings(nw.EndpointCount())
	if err != nil {
		t.Fatal(err)
	}
	emb, err := nw.Embed(ec, ed)
	if err != nil {
		t.Fatal(err)
	}

	local, err := engine.NewLocal(nw.Graph, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := simulation.NewRunner(nw, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	quantum, err := engine.NewQuantum(nw.Graph, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"local", "simulation", "quantum"}
	runners := []interface {
		engine.Runner
		SetObserver(engine.StageObserver)
	}{local, sim, quantum}
	recorders := make([]stageRecorder, len(runners))
	for i, r := range runners {
		r.SetObserver(&recorders[i])
		out, err := verify.DegreeTwoCheck(r, nw.Graph, emb.M)
		if err != nil {
			t.Fatalf("%s backend: %v", names[i], err)
		}
		if !out.Answer {
			t.Fatalf("%s backend rejected the embedded M", names[i])
		}
	}
	// Every backend runs the same stages; only the accounting differs.
	want := recorders[0].stages
	if len(want) == 0 {
		t.Fatal("the local backend observed no stage")
	}
	for i := 1; i < len(runners); i++ {
		got := recorders[i].stages
		if len(got) != len(want) {
			t.Fatalf("%s backend ran %d stages, local %d", names[i], len(got), len(want))
		}
		for s := range want {
			if !reflect.DeepEqual(got[s], want[s]) {
				t.Fatalf("%s backend, stage %d: Result differs from local's:\n got %s\nwant %s",
					names[i], s+1, summary(got[s]), summary(want[s]))
			}
		}
	}
	if got, want := sim.Stats(), local.Stats(); got != want {
		t.Fatalf("simulation Stats %+v, want local's %+v", got, want)
	}
	if got, want := quantum.Report().Classical, local.Stats(); got != want {
		t.Fatalf("quantum Report().Classical %+v, want local's Stats %+v", got, want)
	}

	rep := sim.Report()
	if !rep.WithinRoundBudget {
		t.Fatalf("degree check took %d rounds, budget %d", rep.Rounds, nw.MaxSimulationRounds())
	}
	perRound := sim.PerRoundBound()
	if rep.ServerModelCost > perRound*int64(rep.Rounds) {
		t.Fatalf("charged %d bits over %d rounds, exceeding the O(B log L)=%d per-round bound",
			rep.ServerModelCost, rep.Rounds, perRound)
	}
	if rep.ServerModelCost <= 0 {
		t.Fatal("simulation should charge some Carol/David communication")
	}
}
