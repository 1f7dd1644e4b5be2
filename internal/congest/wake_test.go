package congest

import (
	"errors"
	"testing"

	"qdc/internal/graph"
)

// burstNode pins the vote-to-halt contract on a path, where messages only
// travel from v to v+1. Node 0 starts in round 1; every other node reports
// done while idle until its left neighbour's first message wakes it. A
// started node v < n-1 sends to v+1 once per round for burstLen(v) rounds,
// reporting not done until its last send, which reports done in the same
// round. The last node only receives. Each node counts in calls how many
// times its Round was called.
type burstNode struct {
	burst   int
	fault   string
	started bool
	left    int
	calls   int
	outbox  []Message
}

// The faults a woken node can raise on its first step.
const (
	faultStranger = "stranger" // send to a node that is not a neighbour
	faultPanic    = "panic"
)

func burstLen(v, n int) int {
	if v == n-1 {
		return 0
	}
	return 1 + v%3
}

func (b *burstNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	b.calls++
	if !b.started && (len(inbox) > 0 || round == 1 && ctx.ID() == 0) {
		b.started = true
		b.left = b.burst
		switch b.fault {
		case faultStranger:
			return []Message{NewWordMessage(ctx.ID()+2, 0, uint64(round), 0, 4)}, false
		case faultPanic:
			panic("woken")
		}
	}
	if b.left == 0 {
		return nil, true
	}
	b.left--
	return b.outbox, b.left == 0
}

// burstProgram carves burstNodes from a slab, each with its burst length
// and prebuilt message to its right neighbour, giving node faulty the
// fault.
func burstProgram(faulty int, fault string) program {
	return slabOf(func(ctx *Context) burstNode {
		b := burstNode{burst: burstLen(ctx.ID(), ctx.N())}
		if b.burst > 0 {
			b.outbox = []Message{NewWordMessage(ctx.ID()+1, 1, uint64(ctx.ID()), 0, 4)}
		}
		if ctx.ID() == faulty {
			b.fault = fault
		}
		return b
	})
}

// TestVoteToHalt pins which rounds call a node's Round. Node v >= 1 is
// called in round 1, where it is idle and reports done, and next when node
// v-1's first message arrives in round v+1. From there it steps for
// max(burstLen(v), burstLen(v-1)) rounds: while its own burst keeps it awake
// (it reports not done) and while its left neighbour's burst keeps waking
// it. A run that called done nodes every round would call every node in all
// of the run's rounds.
func TestVoteToHalt(t *testing.T) {
	const n = 29
	topo := graph.Path(n)
	workerCounts := []int{1, 2, 3, 4, 7}

	t.Run("clean", func(t *testing.T) {
		prog := burstProgram(-1, "")
		if err := requireSequentialRun(t, topo, workerCounts, prog); err != nil {
			t.Fatal(err)
		}
		res, nodes, _, err := tracedRun(t, topo, 0, prog)
		if err != nil {
			t.Fatal(err)
		}
		wantRounds, wantMessages := 0, 0
		for v := 0; v < n-1; v++ {
			// The last message of v's burst arrives in round v+1+burstLen(v).
			wantRounds = max(wantRounds, v+1+burstLen(v, n))
			wantMessages += burstLen(v, n)
		}
		if res.Rounds != wantRounds || res.TotalMessages != wantMessages {
			t.Errorf("run took %d rounds and %d messages, want %d and %d",
				res.Rounds, res.TotalMessages, wantRounds, wantMessages)
		}
		for v := 0; v < n; v++ {
			// Node 0's burst is its round-1 send, which also reports done.
			want := 1
			if v > 0 {
				want += max(burstLen(v, n), burstLen(v-1, n))
			}
			if got := nodes.([]burstNode)[v].calls; got != want {
				t.Errorf("node %d: Round called %d times, want %d", v, got, want)
			}
		}
	})

	t.Run("woken-node-sends-to-stranger", func(t *testing.T) {
		err := requireSequentialRun(t, topo, workerCounts, burstProgram(13, faultStranger))
		want := "congest: message to non-neighbour: node 13 -> 15 in round 14"
		if !errors.Is(err, ErrNotNeighbor) || err.Error() != want {
			t.Fatalf("sequential run: error %v, want %s", err, want)
		}
	})

	t.Run("woken-node-panics", func(t *testing.T) {
		want := "congest: node 13 panicked in round 14: woken"
		for _, workers := range append([]int{0}, workerCounts...) {
			if got := runRecovered(t, topo, workers, burstProgram(13, faultPanic)); got != want {
				t.Errorf("Workers=%d: panic %v, want %s", workers, got, want)
			}
		}
	})
}

// runRecovered runs prog on topo and returns the value the run panicked
// with, or nil.
func runRecovered(t *testing.T, topo Topology, workers int, prog program) (p any) {
	t.Helper()
	nw, err := NewNetwork(topo, 64)
	if err != nil {
		t.Fatal(err)
	}
	factory, _ := prog(topo.N())
	defer func() { p = recover() }()
	nw.Run(factory, Options{Workers: workers})
	return nil
}
