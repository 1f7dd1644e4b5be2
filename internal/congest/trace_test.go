package congest

import (
	"reflect"
	"testing"

	"qdc/internal/graph"
)

// traceEvent is one Trace callback invocation, captured for comparison.
type traceEvent struct {
	Round int
	Msg   Message
}

// collectTrace runs the hybrid workload with a recording Trace callback and
// returns the full event stream plus the run's Result and node results.
func collectTrace(t *testing.T, workers int) ([]traceEvent, *Result, any) {
	t.Helper()
	res, nodes, events, err := tracedRun(t, ring(53), workers, slabOf(newHybrid(24)))
	if err != nil {
		t.Fatal(err)
	}
	return events, res, nodes
}

// tracedRun runs prog on topo with per-round traffic and a recording
// Trace, returning the result, the node results, the event stream and the
// run's error.
func tracedRun(t *testing.T, topo Topology, workers int, prog program) (*Result, any, []traceEvent, error) {
	t.Helper()
	nw, err := NewNetwork(topo, 64)
	if err != nil {
		t.Fatal(err)
	}
	nw.SetSeed(17)
	var events []traceEvent
	factory, read := prog(topo.N())
	res, err := nw.Run(factory, Options{
		Workers:  workers,
		PerRound: true,
		Trace: func(round int, msg Message) {
			events = append(events, traceEvent{Round: round, Msg: msg})
		},
	})
	return res, read(), events, err
}

// TestTraceIdenticalAcrossWorkers pins the parallel round tracer's contract:
// the event stream observed through Options.Trace is identical — same
// events, same order — whether the round runs on one range or on a worker
// pool, and enabling tracing does not perturb the Result or the node
// results.
func TestTraceIdenticalAcrossWorkers(t *testing.T) {
	forcePool(t)
	seqEvents, seqRes, seqNodes := collectTrace(t, 0)
	if len(seqEvents) == 0 {
		t.Fatal("workload produced no trace events")
	}
	if len(seqEvents) != seqRes.TotalMessages {
		t.Fatalf("trace saw %d events for %d delivered messages", len(seqEvents), seqRes.TotalMessages)
	}
	for _, workers := range []int{1, 4, 8} {
		events, res, nodes := collectTrace(t, workers)
		if !reflect.DeepEqual(seqEvents, events) {
			for i := range seqEvents {
				if i < len(events) && !reflect.DeepEqual(seqEvents[i], events[i]) {
					t.Fatalf("Workers=%d: event %d diverged:\nseq %+v\ngot %+v",
						workers, i, seqEvents[i], events[i])
				}
			}
			t.Fatalf("Workers=%d: event stream diverged (%d vs %d events)",
				workers, len(seqEvents), len(events))
		}
		if !reflect.DeepEqual(seqRes, res) || !reflect.DeepEqual(seqNodes, nodes) {
			t.Errorf("Workers=%d: traced Result or node results diverged from sequential", workers)
		}
	}
}

// TestTraceFillsPerWorkerBuffers is the white-box check that a traced run
// with Workers > 1 builds the pool, logs every accepted message in the
// send log of the worker whose range holds its sender, and traces each
// one.
func TestTraceFillsPerWorkerBuffers(t *testing.T) {
	forcePool(t)
	nw, err := NewNetwork(ring(16), 16)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newRunState(nw)
	if err != nil {
		t.Fatal(err)
	}
	traced := 0
	_, factory := slab(16, newHybrid(2))
	if err := st.start(factory, Options{Workers: 4, Trace: func(int, Message) { traced++ }}); err != nil {
		t.Fatal(err)
	}
	defer st.close()
	if st.pool == nil || len(st.workers) != 4 {
		t.Fatalf("Workers=4 built pool %v with %d range workers", st.pool != nil, len(st.workers))
	}
	st.round = 1
	if _, err := st.runRound(); err != nil {
		t.Fatal(err)
	}
	logged := 0
	for w := range st.workers {
		for _, m := range st.workers[w].sent {
			if m.From < st.starts[w] || m.From >= st.starts[w+1] {
				t.Fatalf("worker %d logged a message from node %d outside its range %d..%d",
					w, m.From, st.starts[w], st.starts[w+1]-1)
			}
		}
		logged += len(st.workers[w].sent)
	}
	if want := 2 * 16; logged != want || traced != want || st.res.TotalMessages != want {
		t.Fatalf("round 1 logged %d and traced %d of %d messages, want %d", logged, traced, st.res.TotalMessages, want)
	}
}

// TestTraceErrorPathsIdenticalAcrossWorkers extends the pinned error
// paths to the tracer: at every worker count the stream holds exactly the
// messages accounted before the violation, in sender order within each
// round, and tracing leaves the partial Result and the node results
// unchanged.
func TestTraceErrorPathsIdenticalAcrossWorkers(t *testing.T) {
	forcePool(t)
	for _, want := range rogueRuns {
		plain, plainNodes, _, _ := runRogue(t, want.overrun, false, 0)
		for _, workers := range []int{0, 1, 2, 4} {
			res, nodes, events, err := runRogue(t, want.overrun, true, workers)
			if err == nil || err.Error() != want.err {
				t.Errorf("overrun=%v Workers=%d: error %v, want %s", want.overrun, workers, err, want.err)
			}
			if len(events) != want.messages {
				t.Errorf("overrun=%v Workers=%d: traced %d events, want %d", want.overrun, workers, len(events), want.messages)
			}
			for i := 1; i < len(events); i++ {
				if prev, ev := events[i-1], events[i]; ev.Round < prev.Round || ev.Round == prev.Round && ev.Msg.From < prev.Msg.From {
					t.Fatalf("overrun=%v Workers=%d: event %d (round %d, from %d) follows round %d, from %d",
						want.overrun, workers, i, ev.Round, ev.Msg.From, prev.Round, prev.Msg.From)
				}
			}
			if !reflect.DeepEqual(res, plain) || !reflect.DeepEqual(nodes, plainNodes) {
				t.Errorf("overrun=%v Workers=%d: traced partial result diverged from the untraced one", want.overrun, workers)
			}
		}
	}
}

// TestTraceSteadyStateAllocFree extends the steady-state guarantee to traced
// runs: once the per-worker trace buffers have grown to the workload's
// per-round traffic, extra rounds allocate nothing at one worker or four,
// inline or on the pool.
func TestTraceSteadyStateAllocFree(t *testing.T) {
	topo := graph.Grid(24, 24)
	const short, long = 8, 104
	measure := func(workers, rounds int) float64 {
		nw, err := NewNetwork(topo, 64)
		if err != nil {
			t.Fatal(err)
		}
		factory := newBenchFlood(topo, rounds)
		opts := Options{
			MaxRounds: rounds + 2,
			Workers:   workers,
			Trace:     func(int, Message) {},
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := nw.Run(factory, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tc := range steadyStateCases {
		t.Run(tc.name, func(t *testing.T) {
			setInlineBelow(t, tc.inlineBelow)
			base := measure(tc.workers, short)
			grown := measure(tc.workers, long)
			perRound := (grown - base) / float64(long-short)
			if perRound > 0.5 {
				t.Errorf("traced steady state allocates %.2f objects/round (short %.0f, long %.0f); want 0",
					perRound, base, grown)
			}
		})
	}
}
