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
// streams the equivalence guarantee has to preserve. Its result is best.
type gossipNode struct {
	best   int
	rounds int
}

func (g *gossipNode) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	for i := range inbox {
		if v := inbox[i].Int0(); v > g.best {
			g.best = v
		}
	}
	if round >= g.rounds {
		return nil, true
	}
	return congest.BroadcastAllWordsInto(ctx.Outbox(), ctx, 0, uint64(g.best), 0, 16), false
}

// gossipStage runs one gossip stage of the given length on r, its node
// programs carved from one slab, node v starting from the larger of its
// first random draw and inputs[v], and returns the stage's Result and the
// slab.
func gossipStage(r Runner, rounds int, inputs map[int]int) (*congest.Result, []gossipNode, error) {
	nodes := make([]gossipNode, r.Size())
	res, err := r.RunStage(func(ctx *congest.Context) congest.Node {
		nodes[ctx.ID()] = gossipNode{rounds: rounds, best: max(ctx.Rand().Intn(1<<16), inputs[ctx.ID()])}
		return &nodes[ctx.ID()]
	}, nil, 0)
	return res, nodes, err
}

// TestNewParallelMatchesLocal pins the backend equivalence guarantee at the
// engine level: for the same topology, bandwidth and seed, a NewParallel
// stage returns the same Result, node results and Stats as a Local stage.
func TestNewParallelMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.RandomConnectedGraph(40, 0.1, rng)
	inputs := map[int]int{3: 1 << 20, 17: 1 << 19}

	local, err := NewLocal(g, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewParallel(g, 32, 5)
	if err != nil {
		t.Fatal(err)
	}

	for stage := 0; stage < 3; stage++ {
		lres, lnodes, lerr := gossipStage(local, 12, inputs)
		pres, pnodes, perr := gossipStage(parallel, 12, inputs)
		if lerr != nil || perr != nil {
			t.Fatalf("stage %d: local err %v, parallel err %v", stage, lerr, perr)
		}
		if !reflect.DeepEqual(lres, pres) {
			t.Fatalf("stage %d: results diverge:\nlocal    %+v\nparallel %+v", stage, lres, pres)
		}
		if !reflect.DeepEqual(lnodes, pnodes) {
			t.Fatalf("stage %d: node results diverge:\nlocal    %+v\nparallel %+v", stage, lnodes, pnodes)
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

	local, err := NewLocal(g, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewParallel(g, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetWorkers(1)

	lres, lnodes, err := gossipStage(local, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	pres, pnodes, err := gossipStage(parallel, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lres, pres) || !reflect.DeepEqual(lnodes, pnodes) {
		t.Fatalf("results diverge:\nlocal    %+v %+v\nparallel %+v %+v", lres, lnodes, pres, pnodes)
	}
}
