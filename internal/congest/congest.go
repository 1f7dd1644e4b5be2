// Package congest implements a synchronous message-passing simulator for the
// CONGEST(B) distributed computing model of Peleg, the model in which all of
// the paper's upper and lower bounds are stated (Section 2.1 and Appendix A.1).
//
// A network is an undirected graph whose vertices are processors. Computation
// proceeds in synchronous rounds. In each round every node may send at most B
// bits over each incident edge in each direction; messages sent in round r are
// delivered at the beginning of round r+1. Nodes have unbounded local
// computation power, so only the number of rounds and the number of bits on
// the wire are accounted for.
//
// The paper's *quantum* CONGEST model allows qubits and shared entanglement on
// top of this; since all the paper's quantitative statements are about round
// and bit counts, the simulator models communication classically and exposes
// exact accounting, while package quantum provides the quantum primitives
// (EPR pairs, teleportation, Grover search) whose costs are plugged into the
// same accounting (see DESIGN.md, substitution table).
//
// The simulator is engineered for scale: the round loop is steady-state
// allocation-free (CSR edge index, one reused inbox per node grown in
// per-worker chunks, one send log per worker into which nodes write their
// messages through Context.Outbox, and one round body partitioned by
// node-ID range, whose ranges exchange messages through per-pair queues of
// log indexes, on Options.Workers goroutines or on the caller's alone),
// a network keeps its last run's working state for the next run instead of
// rebuilding it, a round steps only the awake nodes (a node that
// reports done votes to halt and sleeps until a message wakes it, so a
// round's cost follows its traffic), a message is one 48-byte value with
// no pointer in it, its content in a Kind tag and two inline words (see
// payload.go), so the collector never scans an inbox or a send log, and
// every topology is read by rank through Topology.Neighbor into one flat
// int32 neighbour table, with no per-node copy, sort or weight lookup; an
// edge weight is read back through the topology when a node asks for it. A
// node's Context is 32 bytes, two per cache line: its ID, its lazy random
// source and two pointers, through which it reads n, B and its neighbours
// from the run's shared tables and its edge weights from the topology. A
// run has one way in and one way out: the caller's NodeFactory builds each
// node program with that node's input, and the program keeps its results
// in its own state, where the caller reads them once Run returns.
// Together these carry the same bit-exact accounting from the paper-sized
// networks up to million-node topologies; see DESIGN.md, "The congest hot
// path" and "Compact payloads and streaming topologies".
package congest

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync/atomic"
)

// Default bandwidths used across benchmarks. CONGEST conventionally takes
// B = Θ(log n); DefaultBandwidth is a convenient fixed stand-in for
// moderate n.
const DefaultBandwidth = 32

// Message is a single message sent over one edge in one round.
//
// A message is bits charged to one edge in one round (Section 2.1), and it
// has one representation: its content is the two inline words W0 and W1,
// read under a Kind tag, so a Message holds no pointer, building one
// allocates nothing and delivering one needs no type assertion. Content
// wider than two words travels as several messages on the same edge in the
// same round. Only Bits is charged against the bandwidth budget; the
// merge, trace and accounting paths never look at Kind or the words.
type Message struct {
	// From and To are node IDs; To must be a neighbour of From.
	From, To int
	// Bits is the size charged against the per-edge, per-round budget.
	Bits int
	// Quantum marks the message as carrying qubits rather than classical
	// bits. The paper's quantum CONGEST model (Section 2.1) charges qubits
	// against the same per-edge bandwidth B, so the budget check is
	// identical; the split only matters for accounting — Result reports
	// quantum and classical wire traffic separately, which is what the
	// Grover re-accounting backend (engine.NewQuantum) and any future
	// genuinely quantum node program feed on.
	Quantum bool
	// Kind says how to decode W0/W1. Every value, zero included, is
	// defined by the node program: kinds are scoped to one program and the
	// simulator never interprets them.
	Kind uint8
	// W0 and W1 are the inline payload words. The typed accessors (Int0,
	// Int1, Bool0, …) and the pack helpers (PackIDs, WordFromBool) in
	// payload.go are the supported encodings.
	W0, W1 uint64
}

// Node is the per-processor state machine supplied by an algorithm. Its
// starting state, the node's share of the problem input included, is set
// by the NodeFactory that built it; everything else it learns from its
// Context and its inbox.
//
// Reporting done is a vote to halt: a node's Round is called in round 1, in
// every round after one in which it reported not done, and in every round
// in which a message is delivered to it. A node that reports done and
// receives nothing sleeps until a message wakes it. The run ends when every
// node is done and no message is in flight, or at the round limit.
type Node interface {
	// Round is called with the messages delivered this round (i.e. sent
	// during the previous round). It returns the messages to send this round
	// and whether the node is done. A done node may be woken by a later
	// message, and may then send again and report not done. The skipped
	// calls are exactly those in which a done node would receive nothing,
	// so a program whose done node answers an empty inbox with (nil, true),
	// changing nothing it later acts on, runs as if called every round.
	//
	// The inbox slice is valid only during the call: the simulator delivers
	// the round's messages into the same buffer once the node returns. A
	// program must copy what it keeps and must not retain the inbox. The
	// outbox is taken when Round returns: the simulator copies its messages
	// into its send log before it delivers anything, or keeps them in place
	// when the node built them in ctx.Outbox(). So a program may return the
	// same slice every round, or its inbox or a slice of it. Building the
	// outbox in ctx.Outbox() saves the copy.
	Round(ctx *Context, round int, inbox []Message) (outbox []Message, done bool)
}

// NodeFactory builds the Node that will run at the given context's node,
// with that node's starting state: its input is whatever the factory hands
// it, usually the ID-th entry of the caller's per-node inputs. Run calls
// the factory once per node, in ascending ID order, on the goroutine that
// called Run, before round 1, so a factory may write to its caller's
// variables without synchronisation. The context is fully usable (ID, n, B,
// neighbours, edge weights, random source) when the factory is invoked.
type NodeFactory func(ctx *Context) Node

// Context is the static, per-node view of the network handed to a Node's
// factory and to every Round call. With the input the factory supplies,
// it is the paper's assumption that a node knows its own ID, the IDs of
// its neighbours, the weights of its incident edges, the network size n,
// and its problem-specific input, and nothing else about the topology.
//
// A context holds only the node's ID, its random source and two pointers:
// every other part of the view is read from the run's shared flat tables,
// or for an edge weight from the topology, when asked for. A context is
// valid only inside its run, from the factory call until Run returns; a
// node program must not keep it, or call it, after that.
type Context struct {
	st *runState
	id int32
	// rng is built lazily on the first Rand() call: a rand.Rand is several
	// kilobytes of generator state, which at million-node scale would dwarf
	// the topology itself, and most node programs never draw randomness.
	rng *rand.Rand
	// sent is the send log of the worker that steps this node; Outbox
	// hands out its free tail.
	sent *[]Message
}

// ID returns this node's identifier (0..n-1).
func (c *Context) ID() int { return int(c.id) }

// N returns the number of nodes in the network.
func (c *Context) N() int { return c.st.n }

// Outbox returns an empty slice over the free tail of the simulator's send
// log, for the messages the node sends this round. A node appends its
// messages to it (the Into constructors in payload.go append) and returns
// the result from Round; messages built there are not copied again. Every
// call within one Round returns the same room, so a node builds one outbox
// there. The slice is valid only during the Round call that took it: a
// program must not keep it, or return it in a later round. Appending past
// its capacity is safe, and costs the copy.
func (c *Context) Outbox() []Message {
	log := *c.sent
	return log[len(log):]
}

// Bandwidth returns the per-edge, per-round bit budget B.
func (c *Context) Bandwidth() int { return c.st.nw.bandwidth }

// Degree returns the number of neighbours.
func (c *Context) Degree() int { return len(c.neighbors()) }

// NeighborAt returns the i-th neighbour in ascending-ID order, 0 <= i <
// Degree(). A node walks its neighbours with the two, which copy nothing.
func (c *Context) NeighborAt(i int) int { return int(c.neighbors()[i]) }

// neighbors returns the node's window of the run's neighbour table.
func (c *Context) neighbors() []int32 { return c.st.neighbors(int(c.id)) }

// IsNeighbor reports whether v is adjacent to this node.
func (c *Context) IsNeighbor(v int) bool { return c.st.neighborRank(int(c.id), v) >= 0 }

// EdgeWeight returns the weight of the edge to neighbour v. The run keeps
// no weight table: the weight is read from the topology, by the
// neighbour's rank, when asked for.
func (c *Context) EdgeWeight(v int) (float64, bool) {
	r := c.st.neighborRank(int(c.id), v)
	if r < 0 {
		return 0, false
	}
	_, w := c.st.nw.topo.Neighbor(int(c.id), r)
	return w, true
}

// Rand returns this node's private deterministic random source. Nodes at
// different IDs receive independent streams; re-running the same network
// with the same seed reproduces the same stream (the paper's algorithms are
// Monte Carlo, so reproducibility matters for tests). The source is
// constructed on first use, so runs whose node programs never draw
// randomness pay nothing for it.
func (c *Context) Rand() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.st.seed*1_000_003 + int64(c.id)))
	}
	return c.rng
}

// Errors reported by the simulator.
var (
	// ErrBandwidthExceeded reports that a node attempted to send more than B
	// bits over a single edge in a single round.
	ErrBandwidthExceeded = errors.New("congest: bandwidth exceeded")
	// ErrNotNeighbor reports a message addressed to a non-neighbour.
	ErrNotNeighbor = errors.New("congest: message to non-neighbour")
	// ErrNoTopology reports a network constructed without a topology.
	ErrNoTopology = errors.New("congest: nil topology")
	// ErrRoundLimit reports that the round limit was reached before all
	// nodes terminated.
	ErrRoundLimit = errors.New("congest: round limit reached before termination")
	// ErrCancelled reports that Options.Cancel requested a stop before all
	// nodes terminated.
	ErrCancelled = errors.New("congest: run cancelled")
)

// Topology is the read-only view of the underlying graph that the simulator
// needs: each vertex's neighbours by rank, in strictly ascending ID order,
// with the weights of the connecting edges. *graph.Graph and *graph.CSR
// satisfy it. The simulator checks the order, and the range of every ID,
// before round 1 and reports a topology that breaks either as an error, as
// it does one with more than math.MaxInt32 vertices or directed edges, which
// its int32 tables cannot index.
type Topology interface {
	// N returns the number of vertices.
	N() int
	// Degree returns the number of neighbours of v.
	Degree(v int) int
	// Neighbor returns the i-th neighbour of v in ascending-ID order and
	// the weight of the connecting edge, 0 <= i < Degree(v).
	Neighbor(v, i int) (int, float64)
}

// Network is a configured CONGEST(B) network ready to run algorithms.
//
// A Network may be reused for any number of runs, concurrent ones
// included. It keeps the working state of its last finished run (the flat
// neighbour table with its edge index, the 32-byte contexts that read it,
// the inboxes and the vertex-range partition with its send
// logs), and the next Run resets that state in O(n) instead of rebuilding
// it from the topology, so a multi-stage algorithm pays for the topology
// once. The topology must therefore not change while the network is in
// use. A network holds no per-node inputs: each run's factory hands every
// node program its own, and an idle network keeps no node program, and so
// no input, reachable.
type Network struct {
	topo      Topology
	bandwidth int
	seed      int64
	// parked is the working state of the last run that returned, or nil.
	// Run takes it with a swap, so two runs never share one; a run that
	// finds none builds its own.
	parked atomic.Pointer[runState]
}

// NewNetwork returns a network over the given topology with per-edge
// bandwidth B (bits per round per direction). If bandwidth <= 0,
// DefaultBandwidth is used. The network reads the topology when it first
// runs and keeps what it read, so the topology must not change while the
// network is in use.
func NewNetwork(topo Topology, bandwidth int) (*Network, error) {
	if topo == nil {
		return nil, ErrNoTopology
	}
	if bandwidth <= 0 {
		bandwidth = DefaultBandwidth
	}
	return &Network{topo: topo, bandwidth: bandwidth, seed: 1}, nil
}

// SetSeed fixes the seed from which all per-node random streams are derived.
func (nw *Network) SetSeed(seed int64) { nw.seed = seed }

// Bandwidth returns the configured per-edge bandwidth.
func (nw *Network) Bandwidth() int { return nw.bandwidth }

// Size returns the number of nodes.
func (nw *Network) Size() int { return nw.topo.N() }

// RoundTraffic splits one round's wire traffic into classical bits and
// qubits (messages sent with Message.Quantum set), plus the number of
// messages delivered — the per-round feed of the observability layer's
// histograms (internal/obs via engine.StageObserver).
type RoundTraffic struct {
	Messages      int
	ClassicalBits int64
	QuantumBits   int64
}

// Result summarises one run of an algorithm.
type Result struct {
	// Rounds is the number of synchronous rounds executed.
	Rounds int
	// Terminated reports whether every node signalled done within the limit.
	Terminated bool
	// TotalMessages is the number of messages delivered.
	TotalMessages int
	// TotalBits is the number of bits sent over all edges in all rounds,
	// classical and quantum together.
	TotalBits int64
	// QuantumBits is the subset of TotalBits carried by quantum-marked
	// messages (qubits on the wire).
	QuantumBits int64
	// PerRound is the round-by-round quantum-vs-classical split of the wire
	// traffic; PerRound[r-1] describes round r. It is recorded only when
	// Options.PerRound is set (aggregate QuantumBits always is).
	PerRound []RoundTraffic
	// MaxEdgeBitsPerRound is the maximum number of bits observed on any
	// single directed edge in any single round (always <= bandwidth).
	MaxEdgeBitsPerRound int
}

// Options configures a run.
type Options struct {
	// MaxRounds limits the number of rounds; if the limit is hit before all
	// nodes terminate, Run returns the partial result and ErrRoundLimit.
	// Zero means a default of 64*n + 64 rounds.
	MaxRounds int
	// Trace, if non-nil, is invoked for every accepted message with the
	// round in which it was sent, in deterministic sender-ID order (outbox
	// order within a sender). It is used by the Simulation Theorem engine
	// (internal/simulation) to re-account each message to the party that
	// owns its sender, and by the Grover backend to measure stream volume.
	// Each worker's send log holds the messages of its own ID range in
	// sender order, and after the round's validation the accepted part of
	// every log is replayed in worker order — ascending sender ID — on the
	// goroutine that called Run, so the event stream is the same under any
	// Workers value and the callback never runs concurrently. A round that
	// fails validation replays the messages accepted before the failing
	// one.
	Trace func(round int, msg Message)
	// Workers selects how many goroutines step nodes and deliver traffic
	// within each round; values <= 1 run every round on the goroutine that
	// called Run. Any value produces bit-for-bit identical Results, errors
	// and trace streams: each worker owns a fixed range of node IDs, nodes
	// only interact through messages delivered at round boundaries, each
	// node owns a private random stream, every per-round quantity is a sum
	// or max folded in worker order, and every inbox fills in ascending
	// sender ID whatever the scheduling.
	Workers int
	// Cancel, if non-nil, is polled once per round before the round's nodes
	// step; when it returns true, Run stops and returns the partial result
	// with ErrCancelled. It is how the experiment harness makes a
	// per-scenario timeout actually terminate the simulating goroutine
	// instead of abandoning it mid-sweep.
	Cancel func() bool
	// PerRound opts into recording Result.PerRound, the round-by-round
	// classical/quantum traffic split; long sweeps leave it off and pay
	// nothing for the breakdown.
	PerRound bool
}

// Run executes the algorithm produced by factory on every node and returns
// run statistics. It is deterministic for a fixed seed. It calls factory
// once per node, in ascending ID order, on the calling goroutine, before
// round 1; the factory builds each node program with that node's input. A
// run returns no per-node results: each node program keeps its own, and the
// caller reads them from the programs its factory handed out once Run
// returns, on every exit path, errors included.
//
// The round loop is steady-state allocation-free: the working state below
// (contexts, the flat neighbour table with its CSR edge index,
// flat bandwidth tables, one inbox per node, one send log per worker) is
// built once per network, kept between runs, and reset in O(n) at the
// start of each run, and each round only resets lengths and counters. A
// node's inbox slice is therefore valid only for the duration of the Round
// call that receives it: the round's messages are delivered into the same
// buffer once the node returns. The contexts handed to the factory are
// likewise valid only until Run returns. The state of a run that a panic
// unwinds through is dropped, and the next run builds a fresh one. See
// DESIGN.md, "The congest hot path".
func (nw *Network) Run(factory NodeFactory, opts Options) (*Result, error) {
	st := nw.parked.Swap(nil)
	if st == nil {
		var err error
		if st, err = newRunState(nw); err != nil {
			return nil, err
		}
	}
	if err := st.start(factory, opts); err != nil {
		return nil, err
	}
	res, err := st.run()
	// Not reached when a panic unwinds through run: the panic may have
	// stopped a round between charging edge slots and clearing them.
	nw.park(st)
	return res, err
}

// park keeps st for the next run. It first drops the finished run's node
// programs (and with them every input their factory handed them), every
// context's random source, its options and its Result, so an idle network
// keeps no stage's node state, inputs or callbacks reachable. The send logs
// and inboxes keep their messages: a Message holds no pointer.
func (nw *Network) park(st *runState) {
	clear(st.nodes)
	for v := range st.ctxs {
		st.ctxs[v].rng = nil
	}
	st.opts, st.res = Options{}, nil
	nw.parked.Store(st)
}

// runState is the working set of Network.Run. Everything in it is allocated
// before round 1 of the network's first run and reused by every round and
// every later run; start resets what one run leaves behind.
type runState struct {
	nw   *Network
	opts Options
	n    int
	res  *Result
	// seed is the network's seed as the run's start read it; every
	// context's random stream derives from it.
	seed int64

	// ctxs holds every node's context, one slab for the whole network.
	ctxs  []Context
	nodes []Node
	// done is each node's vote at its last step. A node that did not step
	// this round is done, so a receiver that is not done stepped this round
	// and is already awake for the next.
	done []bool

	// inboxes[v] holds the messages delivered to v for its next step. A
	// step consumes and length-resets the inbox before anything is
	// delivered into it this round, so one buffer per node serves every
	// round. An inbox grows into a region of its owner worker's chunk.
	inboxes [][]Message

	// The CSR edge index. Directed edge (v -> u) has slot
	// offsets[v] + rank of u in v's sorted neighbour list; node v owns
	// slots offsets[v]..offsets[v+1]. nbrs is the neighbour at each slot,
	// the topology as read by rank, four bytes a slot like graph.CSR's
	// targets: every context reads its node's neighbours from it. There is
	// no weight table; Context.EdgeWeight asks the topology for the weight
	// at the neighbour's rank.
	offsets []int32
	nbrs    []int32

	// edgeBits holds the bits charged to each slot this round. Only the
	// slots on a worker's touched list are ever non-zero, and resetting
	// through the lists makes a quiet round cost O(traffic), not O(m).
	// Bandwidths beyond ~2^31 bits/round would overflow the int32
	// accumulation; the budget check itself runs in int, so violations are
	// still caught.
	edgeBits []int32

	// round is the round being run.
	round int

	// The vertex-range partition: worker w owns nodes starts[w]..starts[w+1]-1
	// and holds their round state, awake words included. With
	// Options.Workers <= 1 one range holds all n nodes and runs on the
	// calling goroutine; with more, a pool of goroutines lives for the whole
	// run. The partition is kept between runs with the same worker count.
	// The phase closures are built once so rounds allocate nothing.
	starts     []int
	workers    []rangeWorker
	pool       *workerPool
	stepJob    func(w int)
	deliverJob func(w int)
}

// newRunState builds the topology-derived working state of nw: the flat
// int32 neighbour table with its edge index, the contexts and the per-node
// arrays. A neighbour ID outside 0..n-1, or a neighbour list that is not
// strictly ascending, is an error. So are more than math.MaxInt32 vertices
// or directed edges, which the int32 IDs and offsets cannot hold; that is
// checked from N and Degree alone, before anything is allocated.
func newRunState(nw *Network) (*runState, error) {
	n := nw.topo.N()
	if n < 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("congest: %d nodes; the int32 tables hold 0..%d", n, math.MaxInt32)
	}
	total := 0
	for v := 0; v < n; v++ {
		d := nw.topo.Degree(v)
		if d < 0 || d > math.MaxInt32-total {
			return nil, fmt.Errorf("congest: node %d has degree %d after %d directed edges; the int32 tables hold at most %d",
				v, d, total, math.MaxInt32)
		}
		total += d
	}

	st := &runState{nw: nw, n: n, offsets: make([]int32, n+1)}
	nbrs := make([]int32, 0, total)
	st.ctxs = make([]Context, n)
	for v := 0; v < n; v++ {
		lo := len(nbrs)
		for i := range nw.topo.Degree(v) {
			u, _ := nw.topo.Neighbor(v, i)
			if uint(u) >= uint(n) {
				return nil, fmt.Errorf("congest: node %d lists neighbour %d outside 0..%d", v, u, n-1)
			}
			if len(nbrs) > lo && int32(u) <= nbrs[len(nbrs)-1] {
				return nil, fmt.Errorf("congest: node %d lists neighbour %d after %d; neighbours must be strictly ascending", v, u, nbrs[len(nbrs)-1])
			}
			nbrs = append(nbrs, int32(u))
		}
		st.offsets[v+1] = int32(len(nbrs))
		st.ctxs[v] = Context{st: st, id: int32(v)}
	}
	st.nbrs = nbrs
	st.edgeBits = make([]int32, len(nbrs))

	st.nodes = make([]Node, n)
	st.inboxes = make([][]Message, n)
	st.done = make([]bool, n)
	st.stepJob = st.stepWorker
	st.deliverJob = st.deliverWorker
	return st, nil
}

// start resets what the previous run on this state left behind and builds
// the run's nodes, one factory call per node in ID order: the seed, every
// inbox (a round-limit, cancel or error exit leaves messages in them), the
// awake words, and a fresh Result, since callers keep results across runs;
// a Result holds no per-node field, so it costs the same whatever n. The
// contexts need nothing: park dropped their random sources, and they read
// everything else from the tables. It partitions anew only when the worker
// count changed, before the factory runs, so that a context's Outbox works
// from the first call, and it starts the worker pool after the factory
// calls. done and the send logs need no reset: round 1
// steps every node before anything reads done, and every round resets the
// logs. After a clean exit or a validation error every edge slot is zero
// and every touched list empty; a panic exit's state is never reused.
func (st *runState) start(factory NodeFactory, opts Options) error {
	n := st.n
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 64*n + 64
	}
	workers := max(min(opts.Workers, n), 1)
	if len(st.workers) != workers {
		st.partition(workers)
	}
	st.opts = opts
	st.seed = st.nw.seed
	st.res = &Result{}
	for v := range st.inboxes {
		st.inboxes[v] = st.inboxes[v][:0]
	}
	for v := range st.nodes {
		st.nodes[v] = factory(&st.ctxs[v])
		if st.nodes[v] == nil {
			return fmt.Errorf("congest: factory returned nil node for id %d", v)
		}
	}
	for w := range st.workers {
		st.workers[w].wakeAll(st.starts[w+1] - st.starts[w])
	}
	if workers > 1 {
		st.pool = newWorkerPool(workers)
	}
	return nil
}

// close releases the worker pool, if the run has one.
func (st *runState) close() {
	if st.pool != nil {
		st.pool.close()
		st.pool = nil
	}
}

// run runs the rounds of a started run and releases its worker pool.
func (st *runState) run() (*Result, error) {
	defer st.close()
	res := st.res
	for round := 1; round <= st.opts.MaxRounds; round++ {
		if st.opts.Cancel != nil && st.opts.Cancel() {
			return res, fmt.Errorf("%w: before round %d", ErrCancelled, round)
		}
		res.Rounds = round
		st.round = round
		quiet, err := st.runRound()
		if err != nil {
			return res, err
		}
		if quiet {
			res.Terminated = true
			break
		}
	}
	if !res.Terminated {
		return res, fmt.Errorf("%w: after %d rounds", ErrRoundLimit, res.Rounds)
	}
	return res, nil
}

// neighbors returns v's neighbours in ascending ID order, its window of
// the neighbour table.
func (st *runState) neighbors(v int) []int32 { return st.nbrs[st.offsets[v]:st.offsets[v+1]] }

// neighborRank returns u's index in v's sorted neighbour list, or -1 when u
// is not a neighbour of v. An ID outside 0..n-1 is no neighbour; any other
// fits an int32 and is compared as one. Real topologies are dominated by
// small degrees, where a linear scan beats binary search; large degrees
// fall back to the search.
func (st *runState) neighborRank(v, u int) int {
	if uint(u) >= uint(st.n) {
		return -1
	}
	ns, x := st.neighbors(v), int32(u)
	if len(ns) <= 16 {
		for i, w := range ns {
			if w == x {
				return i
			}
		}
		return -1
	}
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ns[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ns) && ns[lo] == x {
		return lo
	}
	return -1
}

// stepAwake steps worker w's awake nodes in ID order, one run of
// consecutive awake nodes at a time, and keeps each node that reports not
// done awake for the next round. It stops at the first node that panics
// and returns that node's ID and panic value; v is -1 when no node
// panicked.
func (st *runState) stepAwake(w int) (v int, p any) {
	wk := &st.workers[w]
	lo := st.starts[w]
	for i, word := range wk.awake {
		base := lo + i<<6
		for word != 0 {
			first, end := nextRun(word)
			word &^= uint64(1)<<end - 1
			var notDone uint64
			if notDone, v, p = st.stepRange(wk, base+first, base+end); v >= 0 {
				return v, p
			}
			if notDone != 0 {
				wk.wake[i] |= notDone << first
				wk.notAllDone = true
			}
		}
	}
	return -1, nil
}

// stepRange runs the Round of nodes lo..hi-1 (at most 64) of worker wk's
// range in ID order, filling done and committing each outbox to wk's send
// log, under one deferred recover. Bit v-lo of notDone is set when node v
// reports not done. It stops at the first node that panics and returns
// that node's ID and panic value; v is -1 when no node panicked.
//
// Each consumed inbox is length-reset as soon as its node returns, and
// the round's delivery appends into it after that, so every delivery finds
// its inbox empty without a pass of its own over the nodes: a node that
// does not step had nothing delivered, or it would be awake. The outbox is
// committed before that reset, so an outbox that is the inbox is copied
// before anything is delivered into it.
func (st *runState) stepRange(wk *rangeWorker, lo, hi int) (notDone uint64, v int, p any) {
	defer func() { p = recover() }()
	for v = lo; v < hi; v++ {
		out, done := st.nodes[v].Round(&st.ctxs[v], st.round, st.inboxes[v])
		if len(out) > 0 {
			wk.commit(v, out)
		}
		st.done[v] = done
		st.inboxes[v] = st.inboxes[v][:0]
		if !done {
			notDone |= 1 << (v - lo)
		}
	}
	return notDone, -1, nil
}

// nextRun returns the lowest run of consecutive set bits in a non-zero
// word as the bit range [first, end). The loops over awake words step
// node by node through each run, so a word in which every node is awake
// costs one plain loop.
func nextRun(word uint64) (first, end int) {
	first = bits.TrailingZeros64(word)
	return first, first + bits.TrailingZeros64(^(word >> first))
}

// clearSlots zeroes the listed edge slots and returns the emptied list, so
// a reset costs the round's traffic rather than the graph's size.
func clearSlots(edgeBits, touched []int32) []int32 {
	for _, slot := range touched {
		edgeBits[slot] = 0
	}
	return touched[:0]
}
