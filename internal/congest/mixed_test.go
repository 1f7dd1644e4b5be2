package congest

import (
	"reflect"
	"testing"
)

// mixedPayloadNode sends four classes of message side by side in the same
// rounds: packed IDs, flags, a (round, hops) pair under kind zero, and
// qubits. Per neighbour the class rotates with the round, so every inbox
// interleaves all four. The node folds what it receives into a running
// digest, its result, which makes the results sensitive to every delivered
// message of every class.
type mixedPayloadNode struct {
	rounds int
	digest uint64
}

// The kinds of the mixed workload. Kind zero is a program's value like any
// other.
const (
	kindMixedPair   uint8 = 0
	kindMixedQubits uint8 = 1
	kindMixedInts   uint8 = 2
	kindMixedFlags  uint8 = 3
)

func (m *mixedPayloadNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	for i := range inbox {
		msg := &inbox[i]
		switch msg.Kind {
		case kindMixedInts:
			u, v := UnpackIDs(msg.W0)
			m.digest = m.digest*31 + uint64(u) + uint64(v)<<8 + msg.W1
		case kindMixedFlags:
			m.digest = m.digest*31 + WordFromBool(msg.Bool0()) + 2*WordFromBool(msg.Bool1())
		case kindMixedQubits:
			m.digest = m.digest*31 + msg.W0
		case kindMixedPair:
			m.digest = m.digest*31 + msg.W0<<4 + msg.W1
		}
	}
	if round > m.rounds {
		return nil, true
	}
	var out []Message
	for i := 0; i < ctx.Degree(); i++ {
		u := ctx.NeighborAt(i)
		switch (ctx.ID() + u + round) % 4 {
		case 0:
			out = AppendWordMessage(out, u, kindMixedInts, PackIDs(ctx.ID(), u), uint64(round), 2+round%7)
		case 1:
			out = AppendWordMessage(out, u, kindMixedFlags,
				WordFromBool(round%2 == 0), WordFromBool(ctx.ID() < u), 2)
		case 2:
			out = append(out, NewQubitMessage(u, kindMixedQubits, uint64(3+ctx.Rand().Intn(5)), 0, 3+round%3))
		default:
			out = AppendWordMessage(out, u, kindMixedPair, uint64(round), uint64(ctx.ID()%5), 4+round%5)
		}
	}
	return out, false
}

// runMixed executes the mixed workload and returns the Result, the node
// slab and the full traced message stream — Kind, W0/W1 and Quantum
// included, since every worker count runs the same program and must agree
// on the content itself, not just the accounting projection.
func runMixed(t *testing.T, workers int) (*Result, []mixedPayloadNode, []traceEvent) {
	t.Helper()
	nw, err := NewNetwork(ring(41), 64)
	if err != nil {
		t.Fatal(err)
	}
	nw.SetSeed(29)
	var events []traceEvent
	nodes, factory := slab(41, func(*Context) mixedPayloadNode { return mixedPayloadNode{rounds: 17} })
	res, err := nw.Run(factory,
		Options{
			Workers:  workers,
			PerRound: true,
			Trace: func(round int, msg Message) {
				events = append(events, traceEvent{Round: round, Msg: msg})
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	return res, nodes, events
}

// TestMixedPayloadsIdenticalAcrossWorkers pins the data plane's contract for
// a workload that interleaves classical messages of several kinds, kind zero
// included, with quantum ones in the same rounds: the full Result (rounds,
// bit and message totals, the quantum split, per-round traffic), the digest
// every node ends with and the complete trace stream are identical whether
// the round runs on one range or on a worker pool.
func TestMixedPayloadsIdenticalAcrossWorkers(t *testing.T) {
	forcePool(t)
	seqRes, seqNodes, seqEvents := runMixed(t, 0)

	// The workload must genuinely mix all three classes.
	var words, pairs, quantum int
	for _, ev := range seqEvents {
		switch {
		case ev.Msg.Quantum:
			quantum++
		case ev.Msg.Kind == kindMixedPair:
			pairs++
		default:
			words++
		}
	}
	if words == 0 || pairs == 0 || quantum == 0 {
		t.Fatalf("workload must mix word/kind-zero/quantum traffic, got %d/%d/%d", words, pairs, quantum)
	}
	if seqRes.QuantumBits == 0 || seqRes.QuantumBits >= seqRes.TotalBits {
		t.Fatalf("quantum accounting off: %d of %d bits", seqRes.QuantumBits, seqRes.TotalBits)
	}
	if seqRes.TotalMessages != len(seqEvents) {
		t.Fatalf("trace saw %d events for %d delivered messages", len(seqEvents), seqRes.TotalMessages)
	}

	for _, workers := range []int{1, 4} {
		res, nodes, events := runMixed(t, workers)
		if !reflect.DeepEqual(seqRes, res) {
			t.Errorf("Workers=%d: Result diverged from sequential:\nseq %+v\ngot %+v", workers, seqRes, res)
		}
		if !reflect.DeepEqual(seqNodes, nodes) {
			t.Errorf("Workers=%d: node digests diverged from sequential:\nseq %+v\ngot %+v", workers, seqNodes, nodes)
		}
		if !reflect.DeepEqual(seqEvents, events) {
			t.Errorf("Workers=%d: trace stream diverged (%d vs %d events)", workers, len(seqEvents), len(events))
		}
	}
}
