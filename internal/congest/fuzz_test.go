package congest

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"qdc/internal/graph"
)

// FuzzRunMatchesReference runs a node program derived from the fuzz input
// on a small topology at every worker count and holds Result, every node's
// (digest, calls) pair, trace stream and error or panic text to
// referenceRun, an independent statement of the round semantics. The
// program mixes classical messages of several kinds, kind zero included,
// qubit messages, oversize messages and messages to non-neighbours, done
// votes and wake-ups, and optionally a node panic,
// and it hands its messages back in every outbox shape (see
// fuzzNode.Round); the seed corpus under testdata/fuzz covers each of
// these. Every input runs twice on the same
// network, so the second run starts from whatever state the first one's
// exit left behind and must still match.
func FuzzRunMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape, size uint8, seed int64, mix uint32) {
		topo := fuzzTopology(shape, size, mix)
		p := newFuzzProgram(topo.N(), seed, mix)
		opts := Options{MaxRounds: p.maxRounds, PerRound: mix&1 != 0}

		want := referenceRun(topo, p.bandwidth, seed, p.nodes, opts)
		for _, workers := range []int{0, 1, 2, 3, 4} {
			nw, err := NewNetwork(topo, p.bandwidth)
			if err != nil {
				t.Fatal(err)
			}
			nw.SetSeed(seed)
			for _, run := range []string{"first run", "rerun"} {
				if diff := sameOutcome(fuzzRun(nw, p.nodes, opts, workers), want); diff != "" {
					t.Fatalf("Workers=%d, %s: %s", workers, run, diff)
				}
			}
		}
	})
}

// runOutcome is everything a run reports: its Result, its node results as
// its program reads them from the slab (nil after a panic), its trace
// stream, its error text ("" for none) and the text it panicked with (""
// for none).
type runOutcome struct {
	res    *Result
	nodes  any
	events []traceEvent
	err    string
	panic  string
}

// sameOutcome reports how got differs from want, or "" when it does not.
func sameOutcome(got, want runOutcome) string {
	switch {
	case got.panic != want.panic:
		return fmt.Sprintf("panic %q, want %q", got.panic, want.panic)
	case got.err != want.err:
		return fmt.Sprintf("error %q, want %q", got.err, want.err)
	case !reflect.DeepEqual(got.res, want.res):
		return fmt.Sprintf("Result diverged:\ngot  %+v\nwant %+v", got.res, want.res)
	case !reflect.DeepEqual(got.nodes, want.nodes):
		return fmt.Sprintf("node results diverged:\ngot  %v\nwant %v", got.nodes, want.nodes)
	case !reflect.DeepEqual(got.events, want.events):
		return fmt.Sprintf("trace diverged (%d vs %d events)", len(got.events), len(want.events))
	}
	return ""
}

// record is a Trace callback appending to the outcome's stream.
func (o *runOutcome) record(round int, msg Message) {
	o.events = append(o.events, traceEvent{Round: round, Msg: msg})
}

// setErr stores err's text.
func (o *runOutcome) setErr(err error) {
	if err != nil {
		o.err = err.Error()
	}
}

// fuzzTopology picks a connected topology on 2..64 nodes: a path, ring,
// star or grid, or the asymmetric skewRing. Bit 29 of mix hands the
// graph-built families over as a CSR instead of the *graph.Graph, the
// other Topology implementation.
func fuzzTopology(shape, size uint8, mix uint32) Topology {
	var g *graph.Graph
	switch shape % 5 {
	case 0:
		g = graph.Path(2 + int(size)%63)
	case 1:
		return ring(3 + int(size)%62)
	case 2:
		g = graph.Star(2 + int(size)%63)
	case 3:
		rows, cols := 1+int(size)%8, 2+int(size>>3)%7
		g = graph.Grid(rows, cols)
	default:
		return skewRing(4 + int(size)%61)
	}
	if mix&(1<<29) != 0 {
		return graph.FromGraph(g)
	}
	return g
}

// fuzzProgram holds the behaviour switches and rates a fuzz input sets.
// Rates are out of 65536 per message (stranger, oversize) or out of 8 per
// step (vote).
type fuzzProgram struct {
	bandwidth, maxRounds int
	// active is the number of rounds in which awake nodes send freely;
	// after it, nodes vote done and a woken node echoes now and then.
	active             int
	stranger, oversize uint64
	vote               uint64
	// panicNode panics when stepped in panicRound; -1 disables it.
	panicNode, panicRound int
}

func newFuzzProgram(n int, seed int64, mix uint32) *fuzzProgram {
	rate := func(k uint32) uint64 { return uint64(k*k) * 4 }
	p := &fuzzProgram{
		bandwidth: 4 + int(mix>>1&31),
		maxRounds: 1 + int(mix>>6&31),
		active:    int(mix >> 11 & 15),
		stranger:  rate(mix >> 15 & 7),
		oversize:  rate(mix >> 18 & 7),
		vote:      uint64(mix >> 21 & 7),
		panicNode: -1,
	}
	if mix&(1<<24) != 0 {
		p.panicNode = int(uint64(seed) % uint64(n))
		p.panicRound = 1 + int(mix>>25&15)
	}
	return p
}

// nodes is the fuzz program's slab: node v runs element v, its digest
// starting from v, and each node's result is its (digest, calls) pair.
func (p *fuzzProgram) nodes(n int) (NodeFactory, func() any) {
	nodes, factory := slab(n, func(ctx *Context) fuzzNode { return fuzzNode{p: p, digest: uint64(ctx.ID())} })
	return factory, func() any {
		pairs := make([][2]uint64, n)
		for v := range nodes {
			pairs[v] = [2]uint64{nodes[v].digest, uint64(nodes[v].calls)}
		}
		return pairs
	}
}

// fuzzNode folds everything it receives, in order, into a digest, and
// counts its steps in calls, so every node's result depends on which rounds
// stepped the node and on the exact order of its inboxes.
type fuzzNode struct {
	p      *fuzzProgram
	digest uint64
	calls  int
	out    []Message
}

func (f *fuzzNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	p := f.p
	for i := range inbox {
		m := &inbox[i]
		x := uint64(m.From)<<48 ^ uint64(m.Bits)<<32 ^ uint64(m.Kind)<<24 ^ m.W0 ^ m.W1<<1
		if m.Quantum {
			x = ^x
		}
		f.digest = mix64(f.digest ^ x)
	}
	f.calls++
	if ctx.ID() == p.panicNode && round == p.panicRound {
		panic(fmt.Sprintf("fuzz node %d, digest %x", ctx.ID(), f.digest))
	}

	h := mix64(f.digest ^ uint64(round)<<40 ^ ctx.Rand().Uint64())
	sends := 0
	switch {
	case round <= p.active:
		sends = int(h % uint64(ctx.Degree()+2))
	case len(inbox) > 0 && h%4 == 0:
		sends = 1
	}
	done := round > p.active || h>>61 < p.vote
	shape := mix64(h^0x5eed) % 6
	var out []Message
	switch shape {
	case 0, 4:
		// The node's own slice, reused across rounds. Shape 4 first
		// writes junk into the tail of an Outbox it then drops.
		if shape == 4 {
			_ = append(ctx.Outbox(), fuzzJunk, fuzzJunk)
		}
		out = f.out[:0]
	case 1, 3:
		out = ctx.Outbox()
	case 2:
		// The first message of an Outbox is junk, dropped on return.
		out = append(ctx.Outbox(), fuzzJunk)[1:]
	default:
		// The inbox, overwritten: it is consumed by now.
		out = inbox[:0]
	}
	for i := 0; i < sends; i++ {
		h = mix64(h + uint64(i))
		out = append(out, f.message(ctx, round, h))
	}
	switch shape {
	case 0, 4:
		f.out = out
	case 3:
		// Written in the Outbox, then appended past its capacity.
		out = slices.Grow(out, cap(out)-len(out)+1)
	}
	return out, done
}

// fuzzJunk is the message fuzzNode writes into Outbox room it then leaves
// out of its outbox: sent, it would fail validation.
var fuzzJunk = Message{To: -1, Bits: 1 << 20, Kind: 1}

// message builds one message from the hash h: a classical message of kind
// 1..4 carrying the hash, one of kind zero carrying the round, or a qubit
// message, usually to a neighbour within B/4 bits, now and then to a
// non-neighbour or an ID outside the network, oversize, or with negative
// Bits.
func (f *fuzzNode) message(ctx *Context, round int, h uint64) Message {
	p := f.p
	to := ctx.NeighborAt(int(h>>8) % ctx.Degree())
	if h&0xffff < p.stranger {
		to = [...]int{ctx.ID(), -1, ctx.N(), (ctx.ID() + ctx.N()/2) % ctx.N()}[h>>16&3]
	}
	bits := 1 + int(h>>20)%max(1, p.bandwidth/4)
	switch r := h >> 32 & 0xffff; {
	case r < p.oversize:
		bits = p.bandwidth + 1 + int(h>>48&7)
	case r >= 0xf800:
		bits = -int(h >> 48 & 7)
	}
	switch h >> 52 % 3 {
	case 0:
		return NewWordMessage(to, uint8(1+h>>56&3), h, uint64(round), bits)
	case 1:
		return NewWordMessage(to, 0, uint64(round)<<8, h>>56, bits)
	default:
		return NewQubitMessage(to, 0, uint64(ctx.Rand().Intn(1000))<<16, 0, bits)
	}
}

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// fuzzRun runs prog on nw through Network.Run with a recording Trace.
func fuzzRun(nw *Network, prog program, opts Options, workers int) (o runOutcome) {
	opts.Workers = workers
	opts.Trace = o.record
	defer func() {
		if p := recover(); p != nil {
			o.panic = fmt.Sprint(p)
		}
	}()
	factory, read := prog(nw.Size())
	res, err := nw.Run(factory, opts)
	o.res, o.nodes = res, read()
	o.setErr(err)
	return o
}

// referenceRun is the round loop stated as plainly as possible: a []bool
// awake set, per-edge bit counts in a map, and delivery by walking the
// stepped nodes in ascending ID, outbox order within a node, so each inbox
// fills in ascending sender ID. It has no ranges, slots or queues, and it
// takes a copy of every outbox as its node returns it, so each context's
// Outbox is room in one scratch slice that is never committed. Its
// contexts read a minimal run state: the neighbour table, the topology and
// the seed. It traces every accepted message; opts.Trace and opts.Cancel
// are ignored, and opts.MaxRounds must be positive.
func referenceRun(topo Topology, bandwidth int, seed int64, prog program, opts Options) (o runOutcome) {
	n := topo.N()
	res := &Result{}
	st := &runState{nw: &Network{topo: topo, bandwidth: bandwidth}, n: n, seed: seed, offsets: make([]int32, n+1)}
	ctxs := make([]*Context, n)
	isNeighbor := make([]map[int]bool, n)
	scratch := make([]Message, 0, 4)
	for v := 0; v < n; v++ {
		isNeighbor[v] = map[int]bool{}
		for i := range topo.Degree(v) {
			u, _ := topo.Neighbor(v, i)
			st.nbrs = append(st.nbrs, int32(u))
			isNeighbor[v][u] = true
		}
		st.offsets[v+1] = int32(len(st.nbrs))
		ctxs[v] = &Context{st: st, id: int32(v), sent: &scratch}
	}
	factory, read := prog(n)
	nodes := make([]Node, n)
	for v := range nodes {
		nodes[v] = factory(ctxs[v])
	}

	finish := func(err error) runOutcome {
		o.res, o.nodes = res, read()
		o.setErr(err)
		return o
	}
	awake := make([]bool, n)
	for v := range awake {
		awake[v] = true
	}
	done := make([]bool, n)
	inboxes := make([][]Message, n)
	for round := 1; round <= opts.MaxRounds; round++ {
		res.Rounds = round
		outboxes := make([][]Message, n)
		for v := 0; v < n; v++ {
			if !awake[v] {
				continue
			}
			if p, ok := stepNode(nodes[v], ctxs[v], round, inboxes[v], &outboxes[v], &done[v]); !ok {
				o.panic = fmt.Sprintf("congest: node %d panicked in round %d: %v", v, round, p)
				return o
			}
		}

		nextInboxes := make([][]Message, n)
		nextAwake := make([]bool, n)
		edgeBits := map[[2]int]int{}
		var traffic RoundTraffic
		for v := 0; v < n; v++ {
			if !awake[v] {
				continue
			}
			nextAwake[v] = nextAwake[v] || !done[v]
			for _, msg := range outboxes[v] {
				msg.From = v
				if !isNeighbor[v][msg.To] {
					return finish(fmt.Errorf("%w: node %d -> %d in round %d", ErrNotNeighbor, v, msg.To, round))
				}
				msg.Bits = max(msg.Bits, 0)
				edge := [2]int{v, msg.To}
				edgeBits[edge] += msg.Bits
				if edgeBits[edge] > bandwidth {
					return finish(fmt.Errorf("%w: node %d -> %d sent %d bits in round %d (B=%d)",
						ErrBandwidthExceeded, v, msg.To, edgeBits[edge], round, bandwidth))
				}
				nextInboxes[msg.To] = append(nextInboxes[msg.To], msg)
				nextAwake[msg.To] = true
				res.TotalMessages++
				res.TotalBits += int64(msg.Bits)
				traffic.Messages++
				if msg.Quantum {
					res.QuantumBits += int64(msg.Bits)
					traffic.QuantumBits += int64(msg.Bits)
				} else {
					traffic.ClassicalBits += int64(msg.Bits)
				}
				res.MaxEdgeBitsPerRound = max(res.MaxEdgeBitsPerRound, edgeBits[edge])
				o.record(round, msg)
			}
		}
		if opts.PerRound {
			res.PerRound = append(res.PerRound, traffic)
		}
		inboxes, awake = nextInboxes, nextAwake
		if !slices.Contains(done, false) && traffic.Messages == 0 {
			res.Terminated = true
			return finish(nil)
		}
	}
	return finish(fmt.Errorf("%w: after %d rounds", ErrRoundLimit, res.Rounds))
}

// stepNode calls node's Round, storing a copy of its outbox and its vote.
// ok is false when Round panicked, with p the panic value.
func stepNode(node Node, ctx *Context, round int, inbox []Message, out *[]Message, done *bool) (p any, ok bool) {
	defer func() {
		if !ok {
			p = recover()
		}
	}()
	sent, vote := node.Round(ctx, round, inbox)
	*out, *done = slices.Clone(sent), vote
	return nil, true
}
