package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"qdc/internal/congest"
	"qdc/internal/graph"
)

// gossipNode floods the maximum (input, own-rng draw) value it has seen so
// far, exercising both message-dependent state and the per-node random
// streams the equivalence guarantee has to preserve.
type gossipNode struct {
	best   int
	rounds int
}

func (g *gossipNode) Init(ctx *congest.Context) {
	g.best = ctx.Rand().Intn(1 << 16)
	if in, ok := ctx.Input().(int); ok && in > g.best {
		g.best = in
	}
}

func (g *gossipNode) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	for i := range inbox {
		if v := inbox[i].Int0(); v > g.best {
			g.best = v
		}
	}
	if round >= g.rounds {
		ctx.SetOutput(g.best)
		return nil, true
	}
	return congest.BroadcastAllWordsInto(ctx.Outbox(), ctx, 0, uint64(g.best), 0, 16), false
}

// TestNewParallelMatchesLocal pins the backend equivalence guarantee at the
// engine level: for the same topology, bandwidth and seed, a NewParallel stage
// returns the same Result and the same Stats as a Local stage.
func TestNewParallelMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.RandomConnectedGraph(40, 0.1, rng)
	factory := func(*congest.Context) congest.Node { return &gossipNode{rounds: 12} }
	inputs := map[int]any{3: 1 << 20, 17: 1 << 19}

	local, err := NewLocal(g, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewParallel(g, 32, 5)
	if err != nil {
		t.Fatal(err)
	}

	for stage := 0; stage < 3; stage++ {
		lres, lerr := local.RunStage(factory, inputs, 0)
		pres, perr := parallel.RunStage(factory, inputs, 0)
		if lerr != nil || perr != nil {
			t.Fatalf("stage %d: local err %v, parallel err %v", stage, lerr, perr)
		}
		if !reflect.DeepEqual(lres, pres) {
			t.Fatalf("stage %d: results diverge:\nlocal    %+v\nparallel %+v", stage, lres, pres)
		}
		if local.Stats() != parallel.Stats() {
			t.Fatalf("stage %d: stats diverge: local %+v, parallel %+v", stage, local.Stats(), parallel.Stats())
		}
	}
}

// TestParallelSingleWorkerDegradesToLocal checks the SetWorkers escape
// hatch: one worker steps sequentially and still matches.
func TestParallelSingleWorkerDegradesToLocal(t *testing.T) {
	g := graph.Grid(5, 5)
	factory := func(*congest.Context) congest.Node { return &gossipNode{rounds: 9} }

	local, err := NewLocal(g, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewParallel(g, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetWorkers(1)

	lres, err := local.RunStage(factory, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := parallel.RunStage(factory, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lres, pres) {
		t.Fatalf("results diverge:\nlocal    %+v\nparallel %+v", lres, pres)
	}
}
