package congest

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"qdc/internal/graph"
)

// The round-loop microbenchmarks measure the simulator's own per-round cost
// — validation, bandwidth accounting, delivery — with node programs whose
// local work is negligible and allocation-free, so the reported
// node-rounds/sec is the hot path itself, not the algorithm on top. The CI
// bench-smoke job runs them with -benchmem on every push. The flood shapes
// also run end to end as the cells of exp's roundbench matrix, whose
// rounds and bits TestRoundbenchMatrixRuns pins; the repository benchmark's
// flood-grid workload (perfbench/README.md) measures the wall time,
// throughput and heap of its n=102400 cell.

// Every factory below carves its node programs, and their prebuilt
// outboxes, from slabs allocated once when the factory is made, and
// rebuilds node v there in place on every run, as the internal/dist
// drivers do. A run's factory calls therefore allocate nothing, and a
// benchmark's allocs/round and B/op count the simulator alone.

// outboxSlab returns one message slab with room for a degree-sized outbox
// per node of topo: node v's is msgs[off[v]:off[v+1]].
func outboxSlab(topo Topology) (msgs []Message, off []int) {
	off = make([]int, topo.N()+1)
	for v := range topo.N() {
		off[v+1] = off[v] + topo.Degree(v)
	}
	return make([]Message, off[topo.N()]), off
}

// benchFloodNode broadcasts a fixed message to every neighbour each round
// for a set number of rounds, then goes quiet. Its factory builds the
// outbox and the node reuses it, so a steady-state round allocates
// nothing in the node program — every measured allocation belongs to the
// simulator.
type benchFloodNode struct {
	rounds int
	outbox []Message
}

// newBenchFlood is the factory of a benchFloodNode run of the given length
// on topo.
func newBenchFlood(topo Topology, rounds int) NodeFactory {
	msgs, off := outboxSlab(topo)
	_, factory := slab(topo.N(), func(ctx *Context) benchFloodNode {
		v := ctx.ID()
		return benchFloodNode{rounds: rounds, outbox: BroadcastAllWordsInto(msgs[off[v]:off[v]:off[v+1]], ctx, 1, 1, 0, 8)}
	})
	return factory
}

func (f *benchFloodNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	if round > f.rounds {
		return nil, true
	}
	return f.outbox, false
}

// benchPingPongNode sends one message per round to a single partner: node
// 2k exchanges with node 2k+1 along a path. Traffic is two messages per
// node pair per round, so this measures the loop's fixed per-round overhead
// at near-zero load — the regime where the old per-round map and slice
// churn was pure waste.
type benchPingPongNode struct {
	rounds int
	outbox []Message
}

// pingPongPartner is node ctx's partner, 2k for 2k+1 and back, or -1 when
// the partner is not its neighbour.
func pingPongPartner(ctx *Context) int {
	partner := ctx.ID() + 1
	if ctx.ID()%2 == 1 {
		partner = ctx.ID() - 1
	}
	if !ctx.IsNeighbor(partner) {
		return -1
	}
	return partner
}

// newBenchPingPong is the factory of a benchPingPongNode run of the given
// length on n nodes, which builds each node's one-message outbox.
func newBenchPingPong(n, rounds int) NodeFactory {
	msgs := make([]Message, n)
	_, factory := slab(n, func(ctx *Context) benchPingPongNode {
		p := benchPingPongNode{rounds: rounds}
		if partner := pingPongPartner(ctx); partner >= 0 {
			v := ctx.ID()
			msgs[v] = NewWordMessage(partner, 1, 1, 0, 8)
			p.outbox = msgs[v : v+1 : v+1]
		}
		return p
	})
	return factory
}

func (p *benchPingPongNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	if round > p.rounds || p.outbox == nil {
		return nil, true
	}
	return p.outbox, false
}

// benchPingPongOutboxNode is benchPingPongNode sending through ctx.Outbox():
// it builds its message in the simulator's send log every round, so
// against benchPingPongNode it measures the in-place commit against the
// copy a returned slice of the node's own costs.
type benchPingPongOutboxNode struct {
	rounds, partner int
}

func (p *benchPingPongOutboxNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	if round > p.rounds || p.partner < 0 {
		return nil, true
	}
	return AppendWordMessage(ctx.Outbox(), p.partner, 1, 1, 0, 8), false
}

// benchWaveNode is a BFS wave from node 0: a node joins when its first
// message arrives, broadcasts once from a prebuilt outbox, and is done. Only
// the frontier sends, and a node the wave has not reached votes to halt, so
// a round's traffic and its stepped nodes are a thin band of the graph.
type benchWaveNode struct {
	reached bool
	sent    bool
	outbox  []Message
}

// newBenchWave is the factory of a benchWaveNode run from node 0 on topo,
// which builds each node's outbox.
func newBenchWave(topo Topology) NodeFactory {
	msgs, off := outboxSlab(topo)
	_, factory := slab(topo.N(), func(ctx *Context) benchWaveNode {
		v := ctx.ID()
		return benchWaveNode{reached: v == 0, outbox: BroadcastAllWordsInto(msgs[off[v]:off[v]:off[v+1]], ctx, 1, 0, 0, 8)}
	})
	return factory
}

func (f *benchWaveNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	f.reached = f.reached || len(inbox) > 0
	if !f.reached || f.sent {
		return nil, true
	}
	f.sent = true
	return f.outbox, false
}

// benchWaveOutboxNode is benchWaveNode broadcasting through ctx.Outbox()
// instead of from a prebuilt outbox, as the flood in internal/dist does.
type benchWaveOutboxNode struct {
	reached, sent bool
}

func (f *benchWaveOutboxNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	f.reached = f.reached || len(inbox) > 0
	if !f.reached || f.sent {
		return nil, true
	}
	f.sent = true
	return BroadcastAllWordsInto(ctx.Outbox(), ctx, 1, 0, 0, 8), false
}

// runRoundLoopBench executes the workload b.N times and reports
// node-rounds/sec and allocs/round (mallocs measured around the runs, so
// node-program and simulator allocations both count — the node programs
// above and their factories are allocation-free by construction). The
// workload runs once on the network before the timer and the malloc count
// start, so every timed run reuses the run state, and even at -benchtime
// 1x the figures are the round loop's, not the state's build.
func runRoundLoopBench(b *testing.B, topo Topology, workers, rounds int, factory NodeFactory) {
	b.Helper()
	nw, err := NewNetwork(topo, 64)
	if err != nil {
		b.Fatal(err)
	}
	n := topo.N()
	opts := Options{MaxRounds: rounds + 2, Workers: workers}
	if _, err := nw.Run(factory, opts); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	totalRounds := 0
	for i := 0; i < b.N; i++ {
		res, err := nw.Run(factory, opts)
		if err != nil {
			b.Fatal(err)
		}
		totalRounds += res.Rounds
	}
	runtime.ReadMemStats(&after)
	b.StopTimer()

	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(totalRounds*n)/elapsed, "node-rounds/sec")
	}
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(totalRounds), "allocs/round")
}

// BenchmarkRoundLoopFloodWords is the dense shape: every node broadcasts
// to every neighbour in every round, on grids of 1024 to 100,000 nodes. The
// CI bench-smoke job runs it with -bench RoundLoop, so its throughput and
// allocs/round are tracked on every push. At 10,000 nodes and more every
// round of Workers 2 and 4 runs on the pool; Workers 2 against Workers 1
// there is the pool against one range (see sparseNodes).
func BenchmarkRoundLoopFloodWords(b *testing.B) {
	const rounds = 64
	for _, n := range []int{1024, 10_000, 100_000} {
		side := intSqrt(n)
		topo := graph.Grid(side, side)
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("grid%d/workers=%d", side*side, workers), func(b *testing.B) {
				runRoundLoopBench(b, topo, workers, rounds, newBenchFlood(topo, rounds))
			})
		}
	}
}

// BenchmarkRoundLoopWave runs the sparse-traffic shape: a BFS wave across
// the 320x320 grid, 640 rounds in which only the frontier sends and steps.
// A round's cost must follow the traffic: a pass over the awake words plus
// the frontier, not n node steps or the edge count. The outbox
// sub-benchmarks send the same wave through ctx.Outbox().
func BenchmarkRoundLoopWave(b *testing.B) {
	const side = 320
	topo := graph.Grid(side, side)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("grid%d/workers=%d", side*side, workers), func(b *testing.B) {
			runRoundLoopBench(b, topo, workers, 2*side, newBenchWave(topo))
		})
		b.Run(fmt.Sprintf("grid%d/outbox/workers=%d", side*side, workers), func(b *testing.B) {
			_, factory := slab(topo.N(), func(ctx *Context) benchWaveOutboxNode {
				return benchWaveOutboxNode{reached: ctx.ID() == 0}
			})
			runRoundLoopBench(b, topo, workers, 2*side, factory)
		})
	}
}

// BenchmarkRoundLoopPingPong runs the every-node-every-round shape at near
// zero load, from a prebuilt outbox and, in the outbox sub-benchmarks,
// through ctx.Outbox().
func BenchmarkRoundLoopPingPong(b *testing.B) {
	const rounds = 256
	topo := graph.Path(1024)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("path1024/workers=%d", workers), func(b *testing.B) {
			runRoundLoopBench(b, topo, workers, rounds, newBenchPingPong(topo.N(), rounds))
		})
		b.Run(fmt.Sprintf("path1024/outbox/workers=%d", workers), func(b *testing.B) {
			_, factory := slab(topo.N(), func(ctx *Context) benchPingPongOutboxNode {
				return benchPingPongOutboxNode{rounds: rounds, partner: pingPongPartner(ctx)}
			})
			runRoundLoopBench(b, topo, workers, rounds, factory)
		})
	}
}

// BenchmarkRoundLoopCrossover measures the crossover behind sparseNodes:
// BenchmarkRoundLoopFloodWords's dense flood, every node stepping in every
// round, for 64 rounds on square grids around 2,048 nodes and at 10,000,
// at Workers 2 and 4, with every round inline on the calling goroutine and
// with every round on the worker pool, forced through inlineBelow. Where
// the pool's ns/op falls below the inline one is the step count from which
// a round earns its dispatch.
func BenchmarkRoundLoopCrossover(b *testing.B) {
	const rounds = 64
	for _, n := range []int{1024, 1600, 1936, 2304, 10_000} {
		side := intSqrt(n)
		topo := graph.Grid(side, side)
		for _, workers := range []int{2, 4} {
			for _, where := range []struct {
				name  string
				below int
			}{{"inline", math.MaxInt}, {"pool", 0}} {
				b.Run(fmt.Sprintf("grid%d/workers=%d/%s", side*side, workers, where.name), func(b *testing.B) {
					setInlineBelow(b, where.below)
					runRoundLoopBench(b, topo, workers, rounds, newBenchFlood(topo, rounds))
				})
			}
		}
	}
}

// BenchmarkRoundLoopScaleMatrix is the scale sweep of the round loop: the
// flood workload across a size ladder on path and grid families, the same
// shapes the exp `scale-xl` matrix runs end to end.
func BenchmarkRoundLoopScaleMatrix(b *testing.B) {
	const rounds = 32
	cases := []struct {
		name string
		topo Topology
	}{
		{"path1025", graph.Path(1025)},
		{"path16385", graph.Path(16385)},
		{"grid1024", graph.Grid(32, 32)},
		{"grid16384", graph.Grid(128, 128)},
		{"grid102400", graph.Grid(320, 320)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			runRoundLoopBench(b, tc.topo, 1, rounds, newBenchFlood(tc.topo, rounds))
		})
	}
}

func intSqrt(n int) int {
	s := 1
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}
