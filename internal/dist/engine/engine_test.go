package engine

import (
	"errors"
	"runtime"
	"testing"
	"weak"

	"qdc/internal/congest"
	"qdc/internal/graph"
)

// echoNode outputs its input and terminates after a fixed number of rounds,
// broadcasting one small message per round until then.
type echoNode struct{ rounds int }

func (e *echoNode) Init(*congest.Context) {}

func (e *echoNode) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	if round >= e.rounds {
		ctx.SetOutput(ctx.Input())
		return nil, true
	}
	return congest.BroadcastAllWordsInto(ctx.Outbox(), ctx, 0, uint64(round), 0, 4), false
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
	factory := func(*congest.Context) congest.Node { return &echoNode{rounds: 3} }

	res, err := r.RunStage(factory, map[int]any{1: "in"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[1] != "in" || res.Outputs[0] != nil {
		t.Fatalf("inputs not delivered: %+v", res.Outputs)
	}
	first := r.Stats()
	if first.Stages != 1 || first.Rounds != res.Rounds || first.Messages == 0 || first.Bits == 0 {
		t.Fatalf("stats after one stage: %+v", first)
	}

	// A second stage must clear the previous inputs and add to the stats.
	res2, err := r.RunStage(factory, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Outputs[1] != nil {
		t.Fatal("inputs from the previous stage leaked into the next stage")
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
	factory := func(*congest.Context) congest.Node { return &echoNode{rounds: 100} }
	if _, err := r.RunStage(factory, nil, 5); !errors.Is(err, congest.ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	// The failed stage is still accounted for.
	if st := r.Stats(); st.Stages != 1 || st.Rounds != 5 {
		t.Fatalf("stats after failed stage: %+v", st)
	}
}

// TestIdleRunnerDropsStageInputs checks that a runner whose stage has
// returned keeps none of that stage's inputs reachable, under the plain and
// the Grover-accounted backend.
func TestIdleRunnerDropsStageInputs(t *testing.T) {
	local, err := NewLocal(graph.Path(3), 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	quantum, err := NewQuantum(graph.Path(3), 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(*congest.Context) congest.Node { return &echoNode{rounds: 1} }
	for name, r := range map[string]Runner{"local": local, "quantum": quantum} {
		in := new([64]byte)
		weakIn := weak.Make(in)
		res, err := r.RunStage(factory, map[int]any{1: in}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outputs[1] != any(in) {
			t.Fatalf("%s: node 1 output %v, not its input", name, res.Outputs[1])
		}
		in, res = nil, nil
		runtime.GC()
		if weakIn.Value() != nil {
			t.Errorf("%s: an idle runner keeps its last stage's input reachable", name)
		}
		runtime.KeepAlive(r)
	}
}
