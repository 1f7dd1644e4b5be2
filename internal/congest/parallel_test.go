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
// round — a worst case for accidental cross-node state sharing.
type mixerNode struct {
	sum    int
	rounds int
}

func (m *mixerNode) Init(ctx *Context) { m.sum = ctx.ID() }

func (m *mixerNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	for _, msg := range inbox {
		if v, ok := msg.Payload.(int); ok {
			m.sum += v
		}
	}
	m.sum += ctx.Rand().Intn(8)
	if round >= m.rounds {
		ctx.SetOutput(m.sum)
		return nil, true
	}
	return BroadcastAll(ctx, m.sum%1024, 10), false
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

func TestWorkersProduceIdenticalResults(t *testing.T) {
	run := func(workers int) *Result {
		nw, err := NewNetwork(ring(37), 16)
		if err != nil {
			t.Fatal(err)
		}
		nw.SetSeed(9)
		res, err := nw.Run(func(*Context) Node { return &mixerNode{rounds: 20} },
			Options{Workers: workers, Inputs: map[int]any{5: 1000}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sequential := run(0)
	for _, workers := range []int{1, 2, 8, 64} {
		if got := run(workers); !reflect.DeepEqual(sequential, got) {
			t.Errorf("Workers=%d diverged from sequential:\nseq %+v\ngot %+v", workers, sequential, got)
		}
	}
}

// hybridNode exercises every accounted quantity at once: classical and
// quantum messages of uneven sizes, per-round traffic splits, outputs, and
// private randomness. Used to pin full-Result equality across worker counts.
type hybridNode struct{ rounds int }

func (h *hybridNode) Init(*Context) {}

func (h *hybridNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	if round > h.rounds {
		return nil, true
	}
	if round == h.rounds {
		ctx.SetOutput([2]int{ctx.ID(), len(inbox)})
	}
	var out []Message
	for i := 0; i < ctx.Degree(); i++ {
		u := ctx.NeighborAt(i)
		if (ctx.ID()+u+round)%3 == 0 {
			out = append(out, NewQubitMessage(u, round, 3+ctx.Rand().Intn(3)))
		} else {
			out = append(out, NewMessage(u, round, 2+(ctx.ID()+round)%5))
		}
	}
	return out, false
}

func TestWorkersIdenticalFullResult(t *testing.T) {
	// Bit-for-bit equality of the whole Result — rounds, message and bit
	// totals, the quantum split, the per-round traffic breakdown, the
	// per-edge maximum and the outputs map — between one range on the
	// calling goroutine and ranges on the worker pool.
	run := func(workers int) *Result {
		nw, err := NewNetwork(ring(53), 64)
		if err != nil {
			t.Fatal(err)
		}
		nw.SetSeed(17)
		res, err := nw.Run(func(*Context) Node { return &hybridNode{rounds: 24} },
			Options{Workers: workers, PerRound: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sequential := run(0)
	if sequential.QuantumBits == 0 || sequential.QuantumBits == sequential.TotalBits {
		t.Fatalf("workload must mix quantum and classical traffic, got %d of %d quantum",
			sequential.QuantumBits, sequential.TotalBits)
	}
	if len(sequential.PerRound) != sequential.Rounds {
		t.Fatalf("PerRound has %d entries for %d rounds", len(sequential.PerRound), sequential.Rounds)
	}
	for _, workers := range []int{1, 4} {
		if got := run(workers); !reflect.DeepEqual(sequential, got) {
			t.Errorf("Workers=%d diverged from sequential:\nseq %+v\ngot %+v", workers, sequential, got)
		}
	}
}

// roguePeer floods legally until round 3, when one designated node breaks a
// rule: addressing a non-neighbour or overrunning the bandwidth budget.
// Every node records an output in round 1, before the violation, so the
// partial result's Outputs map is non-trivial at error time.
type roguePeer struct {
	rogue    bool
	overrun  bool
	partner  int
	stranger int
}

func (r *roguePeer) Init(ctx *Context) {
	r.partner = ctx.NeighborAt(0)
	r.stranger = (ctx.ID() + ctx.N()/2) % ctx.N()
}

func (r *roguePeer) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	if round == 1 {
		ctx.SetOutput(ctx.ID() * 10)
	}
	if r.rogue && round == 3 {
		if r.overrun {
			return []Message{NewMessage(r.partner, 0, 9), NewMessage(r.partner, 0, 9)}, false
		}
		return []Message{NewMessage(r.stranger, 0, 1)}, false
	}
	if round >= 5 {
		return nil, true
	}
	return []Message{NewMessage(r.partner, round, 4)}, false
}

// rogueRun is what a roguePeer run on ring(32) at B = 16 stops with, at
// every worker count: the error, plus the two clean rounds' traffic and the
// round-3 messages of nodes 0..6 and of node 7 before its violation. The
// failing round adds no PerRound entry, and the outputs every node recorded
// in round 1 are collected.
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
// traced is set, a recording Trace.
func runRogue(t *testing.T, overrun, traced bool, workers int) (*Result, []traceEvent, error) {
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
	res, err := nw.Run(func(ctx *Context) Node {
		return &roguePeer{rogue: ctx.ID() == 7, overrun: overrun}
	}, opts)
	return res, events, err
}

// TestErrorPathsIdenticalAcrossWorkers pins the partial result of a run
// that fails validation to absolute numbers at every worker count: the
// error text, the traffic accounted before the violation and the outputs
// recorded before it.
func TestErrorPathsIdenticalAcrossWorkers(t *testing.T) {
	for _, want := range rogueRuns {
		for _, workers := range []int{0, 1, 2, 4} {
			res, _, err := runRogue(t, want.overrun, false, workers)
			if !errors.Is(err, want.is) || err.Error() != want.err {
				t.Errorf("overrun=%v Workers=%d: error %v, want %s", want.overrun, workers, err, want.err)
			}
			if res.Rounds != want.rounds || res.TotalMessages != want.messages || res.TotalBits != want.bits ||
				res.MaxEdgeBitsPerRound != want.maxEdgeBits || len(res.PerRound) != want.perRound {
				t.Errorf("overrun=%v Workers=%d: %d rounds, %d messages, %d bits, max edge %d, %d PerRound entries; want %d, %d, %d, %d, %d",
					want.overrun, workers, res.Rounds, res.TotalMessages, res.TotalBits, res.MaxEdgeBitsPerRound, len(res.PerRound),
					want.rounds, want.messages, want.bits, want.maxEdgeBits, want.perRound)
			}
			if got := setOutputs(res); got != 32 {
				t.Errorf("overrun=%v Workers=%d: error return collected %d outputs, want all 32",
					want.overrun, workers, got)
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
			if err := st.start(func(ctx *Context) Node {
				return &roguePeer{rogue: ctx.ID() == 7, overrun: want.overrun}
			}, Options{Workers: workers}); err != nil {
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

func (f *fuseNode) Init(*Context) {}

func (f *fuseNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	if f.trigger && round == 2 {
		panic("short circuit")
	}
	if round >= 3 {
		return nil, true
	}
	return BroadcastAll(ctx, 0, 1), false
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
	// parallel path repeatedly and require byte-identical outputs.
	var first []any
	for i := 0; i < 10; i++ {
		nw, err := NewNetwork(ring(24), 16)
		if err != nil {
			t.Fatal(err)
		}
		nw.SetSeed(rand.New(rand.NewSource(4)).Int63())
		res, err := nw.Run(func(*Context) Node { return &mixerNode{rounds: 15} }, Options{Workers: 6})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res.Outputs
		} else if !reflect.DeepEqual(first, res.Outputs) {
			t.Fatalf("repeat %d produced different outputs", i)
		}
	}
}

// requireSequentialRun checks a run at each worker count against the
// sequential one — same Result, same event stream, same error text — and
// returns the sequential run's error.
func requireSequentialRun(t *testing.T, topo Topology, workerCounts []int, factory NodeFactory) error {
	t.Helper()
	seqRes, seqEvents, seqErr := tracedRun(t, topo, 0, factory)
	if len(seqEvents) == 0 {
		t.Fatal("workload produced no trace events")
	}
	for _, workers := range workerCounts {
		res, events, err := tracedRun(t, topo, workers, factory)
		if (err == nil) != (seqErr == nil) || (err != nil && err.Error() != seqErr.Error()) {
			t.Errorf("Workers=%d: error %v, want %v", workers, err, seqErr)
		}
		if !reflect.DeepEqual(seqRes, res) {
			t.Errorf("Workers=%d: Result diverged:\nseq %+v\ngot %+v", workers, seqRes, res)
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
	factory := func(*Context) Node { return &mixedPayloadNode{rounds: 12} }

	nw, err := NewNetwork(topo, 64)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newRunState(nw)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.start(factory, Options{Workers: 8}); err != nil {
		t.Fatal(err)
	}
	st.close()
	if st.starts[1] != 1 || st.starts[2] != 1 {
		t.Fatalf("Workers=8 ranges start at %v: want the hub alone, then an empty range", st.starts)
	}

	if err := requireSequentialRun(t, topo, []int{3, 4, 7, 8}, factory); err != nil {
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
// skewRing.
type replyNode struct{ rogue bool }

func (r *replyNode) Init(*Context) {}

func (r *replyNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	if round == 1 {
		ctx.SetOutput(ctx.ID())
	}
	if r.rogue && round == 3 {
		return []Message{NewMessage(inbox[0].From, round, 4)}, false
	}
	if round > 4 {
		return nil, true
	}
	return BroadcastAll(ctx, round, 3+ctx.ID()%4), false
}

// TestPartitionAsymmetricTopology runs a topology whose neighbour lists are
// not symmetric on the partitioned path — delivery needs only the sender's
// list and the receiver's owner — both to termination and into the error
// of a node answering an in-neighbour it does not list.
func TestPartitionAsymmetricTopology(t *testing.T) {
	topo := skewRing(29)
	workerCounts := []int{1, 2, 3, 4, 7}
	t.Run("clean", func(t *testing.T) {
		factory := func(*Context) Node { return &hybridNode{rounds: 10} }
		if err := requireSequentialRun(t, topo, workerCounts, factory); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("reply-to-in-neighbour", func(t *testing.T) {
		factory := func(ctx *Context) Node { return &replyNode{rogue: ctx.ID() == 9} }
		if err := requireSequentialRun(t, topo, workerCounts, factory); !errors.Is(err, ErrNotNeighbor) {
			t.Fatalf("sequential run: error %v, want ErrNotNeighbor", err)
		}
	})
}
