package congest

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"qdc/internal/graph"
)

// mixerNode sums everything it hears with a private random increment each
// round — a worst case for accidental cross-node state sharing. Its result
// is sum.
type mixerNode struct {
	sum    int
	rounds int
}

func (m *mixerNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	for i := range inbox {
		m.sum += inbox[i].Int0()
	}
	m.sum += ctx.Rand().Intn(8)
	if round >= m.rounds {
		return nil, true
	}
	return BroadcastAllWordsInto(ctx.Outbox(), ctx, 0, uint64(m.sum%1024), 0, 10), false
}

// ring is the cycle topology on n >= 3 nodes in which node v lists v-1 and
// v+1 (mod n), in ascending order.
type ring int

func (r ring) N() int { return int(r) }

func (r ring) Degree(int) int { return 2 }

func (r ring) Neighbor(v, i int) (int, float64) {
	n := int(r)
	return sortedPair((v+n-1)%n, (v+1)%n, i), 1
}

// sortedPair returns the i-th of a and b in ascending order.
func sortedPair(a, b, i int) int {
	return [2]int{min(a, b), max(a, b)}[i]
}

// newMixer is the node of a mixerNode run of the given length, whose sum
// starts from its ID.
func newMixer(rounds int) func(*Context) mixerNode {
	return func(ctx *Context) mixerNode { return mixerNode{rounds: rounds, sum: ctx.ID()} }
}

func TestWorkersProduceIdenticalResults(t *testing.T) {
	run := func(workers int) (*Result, []mixerNode) {
		nw, err := NewNetwork(ring(37), 16)
		if err != nil {
			t.Fatal(err)
		}
		nw.SetSeed(9)
		nodes, factory := slab(37, newMixer(20))
		res, err := nw.Run(factory, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res, nodes
	}
	seqRes, seqNodes := run(0)
	for _, workers := range []int{1, 2, 8, 64} {
		if res, nodes := run(workers); !reflect.DeepEqual(seqRes, res) || !reflect.DeepEqual(seqNodes, nodes) {
			t.Errorf("Workers=%d diverged from sequential:\nseq %+v %+v\ngot %+v %+v", workers, seqRes, seqNodes, res, nodes)
		}
	}
}

// hybridNode exercises every accounted quantity at once: classical and
// quantum messages of uneven sizes, per-round traffic splits, a per-node
// result, and private randomness. Used to pin full-Result equality across
// worker counts. Its result is heard, the size of its inbox in its last
// sending round.
type hybridNode struct{ rounds, heard int }

func newHybrid(rounds int) func(*Context) hybridNode {
	return func(*Context) hybridNode { return hybridNode{rounds: rounds} }
}

func (h *hybridNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	if round > h.rounds {
		return nil, true
	}
	if round == h.rounds {
		h.heard = len(inbox)
	}
	var out []Message
	for i := 0; i < ctx.Degree(); i++ {
		u := ctx.NeighborAt(i)
		if (ctx.ID()+u+round)%3 == 0 {
			out = append(out, NewQubitMessage(u, 1, uint64(round), 0, 3+ctx.Rand().Intn(3)))
		} else {
			out = append(out, NewWordMessage(u, 0, uint64(round), 0, 2+(ctx.ID()+round)%5))
		}
	}
	return out, false
}

func TestWorkersIdenticalFullResult(t *testing.T) {
	// Bit-for-bit equality of the whole Result — rounds, message and bit
	// totals, the quantum split, the per-round traffic breakdown and the
	// per-edge maximum — and of every node's result between one range on
	// the calling goroutine and ranges on the worker pool.
	run := func(workers int) (*Result, []hybridNode) {
		nw, err := NewNetwork(ring(53), 64)
		if err != nil {
			t.Fatal(err)
		}
		nw.SetSeed(17)
		nodes, factory := slab(53, newHybrid(24))
		res, err := nw.Run(factory, Options{Workers: workers, PerRound: true})
		if err != nil {
			t.Fatal(err)
		}
		return res, nodes
	}
	sequential, seqNodes := run(0)
	if sequential.QuantumBits == 0 || sequential.QuantumBits == sequential.TotalBits {
		t.Fatalf("workload must mix quantum and classical traffic, got %d of %d quantum",
			sequential.QuantumBits, sequential.TotalBits)
	}
	if len(sequential.PerRound) != sequential.Rounds {
		t.Fatalf("PerRound has %d entries for %d rounds", len(sequential.PerRound), sequential.Rounds)
	}
	for _, workers := range []int{1, 4} {
		if got, nodes := run(workers); !reflect.DeepEqual(sequential, got) || !reflect.DeepEqual(seqNodes, nodes) {
			t.Errorf("Workers=%d diverged from sequential:\nseq %+v %+v\ngot %+v %+v", workers, sequential, seqNodes, got, nodes)
		}
	}
}

// roguePeer floods legally until round 3, when one designated node breaks a
// rule: addressing a non-neighbour or overrunning the bandwidth budget.
// Every node counts its steps, so the slab of a run that stopped at the
// violation shows which rounds stepped each node.
type roguePeer struct {
	rogue    bool
	overrun  bool
	partner  int
	stranger int
	steps    int
}

// newRogue is the node of a roguePeer run whose node 7 breaks the rule
// overrun selects. A node's partner is its first neighbour, and its
// stranger the node half the ring away.
func newRogue(overrun bool) func(*Context) roguePeer {
	return func(ctx *Context) roguePeer {
		return roguePeer{rogue: ctx.ID() == 7, overrun: overrun,
			partner: ctx.NeighborAt(0), stranger: (ctx.ID() + ctx.N()/2) % ctx.N()}
	}
}

func (r *roguePeer) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	r.steps++
	if r.rogue && round == 3 {
		if r.overrun {
			return []Message{NewWordMessage(r.partner, 0, 0, 0, 9), NewWordMessage(r.partner, 0, 0, 0, 9)}, false
		}
		return []Message{NewWordMessage(r.stranger, 0, 0, 0, 1)}, false
	}
	if round >= 5 {
		return nil, true
	}
	return []Message{NewWordMessage(r.partner, 0, uint64(round), 0, 4)}, false
}

// rogueRun is what a roguePeer run on ring(32) at B = 16 stops with, at
// every worker count: the error, plus the two clean rounds' traffic and the
// round-3 messages of nodes 0..6 and of node 7 before its violation. The
// failing round adds no PerRound entry, and every node has stepped in all
// three rounds.
var rogueRuns = []struct {
	overrun     bool
	err         string
	is          error
	rounds      int
	messages    int
	bits        int64
	maxEdgeBits int
	perRound    int
}{
	{false, "congest: message to non-neighbour: node 7 -> 23 in round 3", ErrNotNeighbor, 3, 71, 284, 4, 2},
	{true, "congest: bandwidth exceeded: node 7 -> 6 sent 18 bits in round 3 (B=16)", ErrBandwidthExceeded, 3, 72, 293, 9, 2},
}

// runRogue runs roguePeer on ring(32) with per-round traffic and, when
// traced is set, a recording Trace, and returns the slab with the run.
func runRogue(t *testing.T, overrun, traced bool, workers int) (*Result, []roguePeer, []traceEvent, error) {
	t.Helper()
	nw, err := NewNetwork(ring(32), 16)
	if err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	opts := Options{Workers: workers, PerRound: true}
	if traced {
		opts.Trace = func(round int, msg Message) {
			events = append(events, traceEvent{Round: round, Msg: msg})
		}
	}
	nodes, factory := slab(32, newRogue(overrun))
	res, err := nw.Run(factory, opts)
	return res, nodes, events, err
}

// TestErrorPathsIdenticalAcrossWorkers pins the partial result of a run
// that fails validation to absolute numbers at every worker count: the
// error text, the traffic accounted before the violation and the steps
// every node took up to it.
func TestErrorPathsIdenticalAcrossWorkers(t *testing.T) {
	for _, want := range rogueRuns {
		for _, workers := range []int{0, 1, 2, 4} {
			res, nodes, _, err := runRogue(t, want.overrun, false, workers)
			if !errors.Is(err, want.is) || err.Error() != want.err {
				t.Errorf("overrun=%v Workers=%d: error %v, want %s", want.overrun, workers, err, want.err)
			}
			if res.Rounds != want.rounds || res.TotalMessages != want.messages || res.TotalBits != want.bits ||
				res.MaxEdgeBitsPerRound != want.maxEdgeBits || len(res.PerRound) != want.perRound {
				t.Errorf("overrun=%v Workers=%d: %d rounds, %d messages, %d bits, max edge %d, %d PerRound entries; want %d, %d, %d, %d, %d",
					want.overrun, workers, res.Rounds, res.TotalMessages, res.TotalBits, res.MaxEdgeBitsPerRound, len(res.PerRound),
					want.rounds, want.messages, want.bits, want.maxEdgeBits, want.perRound)
			}
			for v := range nodes {
				if nodes[v].steps != want.rounds {
					t.Errorf("overrun=%v Workers=%d: node %d stepped %d times before the error, want %d",
						want.overrun, workers, v, nodes[v].steps, want.rounds)
				}
			}
		}
	}
}

// TestErrorReturnZeroesEdgeBits pins what a validation error leaves in the
// edge table: every worker's charged slots are zeroed before the return,
// so the table is all zero, as it is between rounds, and every touched
// list is empty.
func TestErrorReturnZeroesEdgeBits(t *testing.T) {
	for _, want := range rogueRuns {
		for _, workers := range []int{1, 4} {
			nw, err := NewNetwork(ring(32), 16)
			if err != nil {
				t.Fatal(err)
			}
			st, err := newRunState(nw)
			if err != nil {
				t.Fatal(err)
			}
			_, factory := slab(32, newRogue(want.overrun))
			if err := st.start(factory, Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			_, err = st.run()
			if err == nil || err.Error() != want.err {
				t.Fatalf("overrun=%v Workers=%d: error %v, want %s", want.overrun, workers, err, want.err)
			}
			if slot := slices.IndexFunc(st.edgeBits, func(bits int32) bool { return bits != 0 }); slot >= 0 {
				t.Errorf("overrun=%v Workers=%d: slot %d still holds %d bits", want.overrun, workers, slot, st.edgeBits[slot])
			}
			for w := range st.workers {
				if n := len(st.workers[w].touched); n != 0 {
					t.Errorf("overrun=%v Workers=%d: worker %d still lists %d touched slots", want.overrun, workers, w, n)
				}
			}
		}
	}
}

// fuseNode panics at its trigger round on one node.
type fuseNode struct{ trigger bool }

func (f *fuseNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	if f.trigger && round == 2 {
		panic("short circuit")
	}
	if round >= 3 {
		return nil, true
	}
	return BroadcastAllWordsInto(ctx.Outbox(), ctx, 0, 0, 0, 1), false
}

func TestNodePanicsPropagateDeterministically(t *testing.T) {
	// Nodes 4 and 11 both panic in round 2; every worker count must report
	// the lowest-ID panicking node with identical text, so failing runs
	// reproduce bit for bit across backends.
	for _, workers := range []int{0, 1, 8} {
		got := func() (p any) {
			defer func() { p = recover() }()
			nw, err := NewNetwork(ring(16), 16)
			if err != nil {
				t.Fatal(err)
			}
			nw.Run(func(ctx *Context) Node {
				return &fuseNode{trigger: ctx.ID() == 11 || ctx.ID() == 4}
			}, Options{Workers: workers})
			return nil
		}()
		if got == nil {
			t.Fatalf("Workers=%d: expected the node panic to propagate", workers)
		}
		want := "congest: node 4 panicked in round 2: short circuit"
		if msg, ok := got.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("Workers=%d: panic %v, want it to contain %q", workers, got, want)
		}
	}
}

func TestWorkersDeterministicAcrossRepeats(t *testing.T) {
	// The per-node random streams must not depend on scheduling: hammer the
	// parallel path repeatedly and require identical node results.
	var first []mixerNode
	for i := 0; i < 10; i++ {
		nw, err := NewNetwork(ring(24), 16)
		if err != nil {
			t.Fatal(err)
		}
		nw.SetSeed(rand.New(rand.NewSource(4)).Int63())
		nodes, factory := slab(24, newMixer(15))
		if _, err := nw.Run(factory, Options{Workers: 6}); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = nodes
		} else if !reflect.DeepEqual(first, nodes) {
			t.Fatalf("repeat %d produced different node results", i)
		}
	}
}

// requireSequentialRun checks a run of prog at each worker count against
// the sequential one — same Result, same node results, same event stream,
// same error text — and returns the sequential run's error.
func requireSequentialRun(t *testing.T, topo Topology, workerCounts []int, prog program) error {
	t.Helper()
	seqRes, seqNodes, seqEvents, seqErr := tracedRun(t, topo, 0, prog)
	if len(seqEvents) == 0 {
		t.Fatal("workload produced no trace events")
	}
	for _, workers := range workerCounts {
		res, nodes, events, err := tracedRun(t, topo, workers, prog)
		if (err == nil) != (seqErr == nil) || (err != nil && err.Error() != seqErr.Error()) {
			t.Errorf("Workers=%d: error %v, want %v", workers, err, seqErr)
		}
		if !reflect.DeepEqual(seqRes, res) {
			t.Errorf("Workers=%d: Result diverged:\nseq %+v\ngot %+v", workers, seqRes, res)
		}
		if !reflect.DeepEqual(seqNodes, nodes) {
			t.Errorf("Workers=%d: node results diverged:\nseq %+v\ngot %+v", workers, seqNodes, nodes)
		}
		if !reflect.DeepEqual(seqEvents, events) {
			t.Errorf("Workers=%d: event stream diverged (%d vs %d events)",
				workers, len(seqEvents), len(events))
		}
	}
	return seqErr
}

// TestPartitionStarUnevenWorkers runs the most lopsided partition: on a
// star the hub's range receives nearly every message, and worker counts
// that do not divide n give ranges of uneven size — at 8 workers the hub
// outweighs a worker's share and leaves an empty range behind it. The mixed
// workload's digests depend on inbox order, so the hub's output pins the
// order of its 49 deliveries per round.
func TestPartitionStarUnevenWorkers(t *testing.T) {
	const n = 50
	topo := graph.Star(n)
	prog := slabOf(func(*Context) mixedPayloadNode { return mixedPayloadNode{rounds: 12} })

	nw, err := NewNetwork(topo, 64)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newRunState(nw)
	if err != nil {
		t.Fatal(err)
	}
	factory, _ := prog(n)
	if err := st.start(factory, Options{Workers: 8}); err != nil {
		t.Fatal(err)
	}
	st.close()
	if st.starts[1] != 1 || st.starts[2] != 1 {
		t.Fatalf("Workers=8 ranges start at %v: want the hub alone, then an empty range", st.starts)
	}

	if err := requireSequentialRun(t, topo, []int{3, 4, 7, 8}, prog); err != nil {
		t.Fatal(err)
	}
}

// skewRing is an asymmetric Topology on n >= 4 nodes: node v lists v+1
// and v+3 (mod n) as neighbours, in ascending order, and neither lists v
// back.
type skewRing int

func (r skewRing) N() int { return int(r) }

func (r skewRing) Degree(int) int { return 2 }

func (r skewRing) Neighbor(v, i int) (int, float64) {
	n := int(r)
	return sortedPair((v+1)%n, (v+3)%n, i), 1
}

// replyNode sends to every listed neighbour for four rounds. The rogue node
// instead answers its first sender in round 3, a node it does not list on a
// skewRing. Every node counts its steps.
type replyNode struct {
	rogue bool
	steps int
}

func (r *replyNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	r.steps++
	if r.rogue && round == 3 {
		return []Message{NewWordMessage(inbox[0].From, 0, uint64(round), 0, 4)}, false
	}
	if round > 4 {
		return nil, true
	}
	return BroadcastAllWordsInto(ctx.Outbox(), ctx, 0, uint64(round), 0, 3+ctx.ID()%4), false
}

// TestPartitionAsymmetricTopology runs a topology whose neighbour lists are
// not symmetric on the partitioned path — delivery needs only the sender's
// list and the receiver's owner — both to termination and into the error
// of a node answering an in-neighbour it does not list.
func TestPartitionAsymmetricTopology(t *testing.T) {
	topo := skewRing(29)
	workerCounts := []int{1, 2, 3, 4, 7}
	t.Run("clean", func(t *testing.T) {
		if err := requireSequentialRun(t, topo, workerCounts, slabOf(newHybrid(10))); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("reply-to-in-neighbour", func(t *testing.T) {
		prog := slabOf(func(ctx *Context) replyNode { return replyNode{rogue: ctx.ID() == 9} })
		if err := requireSequentialRun(t, topo, workerCounts, prog); !errors.Is(err, ErrNotNeighbor) {
			t.Fatalf("sequential run: error %v, want ErrNotNeighbor", err)
		}
	})
}
