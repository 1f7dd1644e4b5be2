package mst

import (
	"math"
	"math/rand"
	"testing"

	"qdc/internal/congest"
	"qdc/internal/dist/engine"
	"qdc/internal/graph"
)

// stepGate is an engine.StageObserver that holds every stage of a Run to
// n + TotalMessages + Rounds steps. Run alternates a fragment stage and an
// MOE stage, phase by phase, so the stage's parity names it.
type stepGate struct {
	t      *testing.T
	name   string
	n      int
	stages int
	steps  [2]int
}

func (s *stepGate) StageDone(res *congest.Result) {
	kind := [2]string{"fragment", "MOE"}[s.stages%2]
	s.steps[s.stages%2] += res.Steps
	s.stages++
	if bound := s.n + res.TotalMessages + res.Rounds; res.Steps > bound {
		s.t.Errorf("%s stage %d (%s): %d steps over %d rounds and %d messages, want at most %d",
			s.name, s.stages, kind, res.Steps, res.Rounds, res.TotalMessages, bound)
	}
}

// TestStageStepsFollowTraffic gates the vote to halt of the fragment and
// MOE stages through Result.Steps, the Round calls a stage made, on every
// stage of an exact MST run over randomly weighted fixtures. All n nodes
// step in round 1. After it a node steps when a message reaches it, at
// most TotalMessages steps, or while it stays awake with an empty inbox,
// which in the fragment stage only node 0 does, keeping the clock, at most
// Rounds steps. Every MOE node steps in round 2, and on a connected
// fixture a message reaches every node then.
func TestStageStepsFollowTraffic(t *testing.T) {
	cycle, err := graph.Cycle(64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, f := range []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle64", cycle},
		{"path64", graph.Path(64)},
		{"grid8x8", graph.Grid(8, 8)},
		{"random40", graph.RandomConnectedGraph(40, 0.15, rng)},
	} {
		g, err := graph.AssignRandomWeights(f.g, 100, rng)
		if err != nil {
			t.Fatal(err)
		}
		r, err := engine.NewLocal(g, 128, 1)
		if err != nil {
			t.Fatal(err)
		}
		gate := &stepGate{t: t, name: f.name, n: g.N()}
		r.SetObserver(gate)
		res, err := Run(r, g, Config{})
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if _, want := g.KruskalMST(); math.Abs(res.OriginalWeight-want) > 1e-9 {
			t.Errorf("%s: tree weight %g, want %g", f.name, res.OriginalWeight, want)
		}
		t.Logf("%s: %d stages, %d fragment steps and %d MOE steps over %d rounds and %d messages",
			f.name, gate.stages, gate.steps[0], gate.steps[1], res.Stats.Rounds, res.Stats.Messages)
	}
}

// TestFragmentStageKeepsItsClock pins the fragment stage's length to n+1
// rounds when its labels settle early. On a star whose every edge is
// chosen the labels and distances settle in round 2, and the stage still
// reads 41 rounds, 117 messages and 1,053 bits, as it did when every node
// stayed awake through round n: node 0 keeps the clock while every other
// node sleeps.
func TestFragmentStageKeepsItsClock(t *testing.T) {
	g := graph.Star(40)
	r, err := engine.NewLocal(g, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	frag, err := runFragments(r, treeAdjacency(g, graph.NewEdgeSetFrom(g.Edges())))
	if err != nil {
		t.Fatal(err)
	}
	for v, f := range frag {
		if f.Label != 0 || f.Dist != min(v, 1) {
			t.Errorf("node %d: label %d at distance %d, want 0 at %d", v, f.Label, f.Dist, min(v, 1))
		}
	}
	if got, want := r.Stats(), (engine.Stats{Stages: 1, Rounds: 41, Messages: 117, Bits: 1053}); got != want {
		t.Errorf("fragment stage on Star(40): %+v, want %+v", got, want)
	}
}

// TestMOEStageOrientsEveryNode pins the MOE stage's second round: every
// node votes not done in round 1, so every node steps in round 2 to orient
// itself, one that no message reaches included. On three isolated nodes
// nothing is sent, and the stage still lasts 2 rounds.
func TestMOEStageOrientsEveryNode(t *testing.T) {
	g := graph.New(3)
	r, err := engine.NewLocal(g, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	frag, err := runFragments(r, treeAdjacency(g, graph.NewEdgeSet()))
	if err != nil {
		t.Fatal(err)
	}
	before := r.Stats()
	moes, err := runMOE(r, frag, exactKeys())
	if err != nil || len(moes) != 0 {
		t.Fatalf("MOE stage on three isolated nodes announced %v (%v); want nothing", moes, err)
	}
	if got, want := r.Stats().Sub(before), (engine.Stats{Stages: 1, Rounds: 2}); got != want {
		t.Errorf("MOE stage on three isolated nodes: %+v, want %+v", got, want)
	}
}
