package flood

import (
	"math/rand"
	"reflect"
	"testing"

	"qdc/internal/congest"
	"qdc/internal/graph"
)

// The word-encoding equivalence pin: the migrated node program must produce
// a Result bit-for-bit identical to the pre-refactor boxed implementation —
// same rounds, bits, outputs and trace stream — on sequential and parallel
// merges alike. boxedDistMsg/boxedNode below are the pre-refactor program,
// kept verbatim.

type boxedDistMsg struct{ Dist int }

type boxedNode struct {
	source bool
	dist   int
	outbox []congest.Message
	sent   bool
}

func (f *boxedNode) Init(ctx *congest.Context) {
	f.source, _ = ctx.Input().(bool)
	f.dist = -1
	if f.source {
		f.dist = 0
	}
}

func (f *boxedNode) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	if f.dist == -1 {
		for i := range inbox {
			if m, ok := inbox[i].Payload.(boxedDistMsg); ok {
				f.dist = m.Dist + 1
				break
			}
		}
	}
	if f.dist == -1 {
		return nil, false
	}
	if f.sent {
		ctx.SetOutput(f.dist)
		return nil, true
	}
	f.sent = true
	if f.outbox == nil {
		f.outbox = congest.BroadcastAll(ctx, boxedDistMsg{Dist: f.dist}, distBits(ctx.N()))
	}
	return f.outbox, false
}

// traceEv is the accounting-visible view of one traced message: everything
// the trace consumers (simulation, quantum re-accounting) read. The payload
// representation intentionally differs between the two programs.
type traceEv struct {
	Round, From, To, Bits int
	Quantum               bool
}

func runTraced(t *testing.T, topo congest.Topology, factory congest.NodeFactory, workers int) (*congest.Result, []traceEv) {
	t.Helper()
	nw, err := congest.NewNetwork(topo, 64)
	if err != nil {
		t.Fatal(err)
	}
	nw.SetSeed(11)
	var evs []traceEv
	res, err := nw.Run(factory, congest.Options{
		MaxRounds: topo.N() + 2,
		Inputs:    map[int]any{0: true},
		Workers:   workers,
		Trace: func(round int, m congest.Message) {
			evs = append(evs, traceEv{round, m.From, m.To, m.Bits, m.Quantum})
		},
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return res, evs
}

func TestWordEncodingMatchesBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	topos := map[string]congest.Topology{
		"grid":   graph.Grid(8, 9),
		"random": graph.RandomConnectedGraph(60, 0.08, rng),
	}
	for name, topo := range topos {
		for _, workers := range []int{0, 1, 4} {
			wordRes, wordEvs := runTraced(t, topo, func(*congest.Context) congest.Node { return &node{} }, workers)
			boxedRes, boxedEvs := runTraced(t, topo, func(*congest.Context) congest.Node { return &boxedNode{} }, workers)
			if !reflect.DeepEqual(wordRes, boxedRes) {
				t.Errorf("%s workers=%d: results differ\n word:  %+v\n boxed: %+v", name, workers, wordRes, boxedRes)
			}
			if !reflect.DeepEqual(wordEvs, boxedEvs) {
				t.Errorf("%s workers=%d: trace streams differ (%d vs %d events)", name, workers, len(wordEvs), len(boxedEvs))
			}
		}
	}
}
