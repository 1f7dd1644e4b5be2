package engine

import (
	"errors"
	"runtime"
	"testing"
	"weak"

	"qdc/internal/congest"
	"qdc/internal/graph"
)

// echoNode holds the input its factory built it with as its result and
// terminates after a fixed number of rounds, broadcasting one small message
// per round until then.
type echoNode struct {
	rounds int
	echo   any
}

func (e *echoNode) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	if round >= e.rounds {
		return nil, true
	}
	return congest.BroadcastAllWordsInto(ctx.Outbox(), ctx, 0, uint64(round), 0, 4), false
}

// echoSlab returns n echoNodes that terminate after the given number of
// rounds, carved from one slab, and the factory that builds node v with
// input inputs[v].
func echoSlab(n, rounds int, inputs map[int]any) ([]echoNode, congest.NodeFactory) {
	nodes := make([]echoNode, n)
	return nodes, func(ctx *congest.Context) congest.Node {
		nodes[ctx.ID()] = echoNode{rounds: rounds, echo: inputs[ctx.ID()]}
		return &nodes[ctx.ID()]
	}
}

func TestNewLocalValidation(t *testing.T) {
	if _, err := NewLocal(nil, 8, 1); !errors.Is(err, ErrNilTopology) {
		t.Fatalf("err = %v, want ErrNilTopology", err)
	}
	r, err := NewLocal(graph.Path(4), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bandwidth() != congest.DefaultBandwidth {
		t.Fatalf("bandwidth = %d, want default", r.Bandwidth())
	}
	if r.Size() != 4 {
		t.Fatalf("size = %d, want 4", r.Size())
	}
}

func TestStatsAccumulateAcrossStages(t *testing.T) {
	r, err := NewLocal(graph.Path(3), 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	nodes, factory := echoSlab(3, 3, map[int]any{1: "in"})

	res, err := r.RunStage(factory, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if nodes[1].echo != "in" || nodes[0].echo != nil || nodes[2].echo != nil {
		t.Fatalf("inputs not delivered: %v, %v, %v", nodes[0].echo, nodes[1].echo, nodes[2].echo)
	}
	first := r.Stats()
	if first.Stages != 1 || first.Rounds != res.Rounds || first.Messages == 0 || first.Bits == 0 {
		t.Fatalf("stats after one stage: %+v", first)
	}

	// A second stage adds to the stats.
	_, factory = echoSlab(3, 3, nil)
	res2, err := r.RunStage(factory, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	second := r.Stats()
	if second.Stages != 2 || second.Rounds != first.Rounds+res2.Rounds {
		t.Fatalf("stats did not accumulate: %+v", second)
	}

	delta := second.Sub(first)
	if delta.Stages != 1 || delta.Rounds != res2.Rounds || delta.Bits != second.Bits-first.Bits {
		t.Fatalf("Sub delta wrong: %+v", delta)
	}
}

func TestRunStagePropagatesRoundLimit(t *testing.T) {
	r, err := NewLocal(graph.Path(3), 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, factory := echoSlab(3, 100, nil)
	if _, err := r.RunStage(factory, nil, 5); !errors.Is(err, congest.ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	// The failed stage is still accounted for.
	if st := r.Stats(); st.Stages != 1 || st.Rounds != 5 {
		t.Fatalf("stats after failed stage: %+v", st)
	}
}

// TestIdleRunnerDropsStageInputs checks that a runner whose stage has
// returned keeps none of that stage's node programs, and so none of the
// inputs their factory built them with, reachable once the caller drops
// its slab, under the plain and the Grover-accounted backend.
func TestIdleRunnerDropsStageInputs(t *testing.T) {
	local, err := NewLocal(graph.Path(3), 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	quantum, err := NewQuantum(graph.Path(3), 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]Runner{"local": local, "quantum": quantum} {
		// The slab, its factory and the input live in this call alone, so
		// once it returns only the runner could keep them reachable.
		weakIn := func() weak.Pointer[[64]byte] {
			in := new([64]byte)
			nodes, factory := echoSlab(3, 1, map[int]any{1: in})
			if _, err := r.RunStage(factory, nil, 0); err != nil {
				t.Fatal(err)
			}
			if nodes[1].echo != any(in) {
				t.Fatalf("%s: node 1 holds %v, not its input", name, nodes[1].echo)
			}
			return weak.Make(in)
		}()
		runtime.GC()
		if weakIn.Value() != nil {
			t.Errorf("%s: an idle runner keeps its last stage's node programs reachable", name)
		}
		runtime.KeepAlive(r)
	}
}
