package congest

import (
	"fmt"
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

// benchFloodNode broadcasts a fixed message to every neighbour each round
// for a set number of rounds, then goes quiet. Its factory builds the
// outbox once and the node reuses it, so a steady-state round allocates
// nothing in the node program — every measured allocation belongs to the
// simulator.
type benchFloodNode struct {
	rounds int
	outbox []Message
}

// newBenchFlood is the factory of a benchFloodNode run of the given length.
func newBenchFlood(rounds int) NodeFactory {
	return func(ctx *Context) Node {
		return &benchFloodNode{rounds: rounds, outbox: BroadcastAllWordsInto(make([]Message, 0, ctx.Degree()), ctx, 1, 1, 0, 8)}
	}
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
// length, which builds each node's one-message outbox.
func newBenchPingPong(rounds int) NodeFactory {
	return func(ctx *Context) Node {
		p := &benchPingPongNode{rounds: rounds}
		if partner := pingPongPartner(ctx); partner >= 0 {
			p.outbox = []Message{NewWordMessage(partner, 1, 1, 0, 8)}
		}
		return p
	}
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

// newBenchWave is the factory of a benchWaveNode run from node 0, which
// builds each node's outbox.
func newBenchWave(ctx *Context) Node {
	return &benchWaveNode{reached: ctx.ID() == 0, outbox: BroadcastAllWordsInto(make([]Message, 0, ctx.Degree()), ctx, 1, 0, 0, 8)}
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
// above are allocation-free by construction).
func runRoundLoopBench(b *testing.B, topo Topology, workers, rounds int, factory NodeFactory) {
	b.Helper()
	nw, err := NewNetwork(topo, 64)
	if err != nil {
		b.Fatal(err)
	}
	n := topo.N()
	opts := Options{MaxRounds: rounds + 2, Workers: workers}

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
// allocs/round are tracked on every push.
func BenchmarkRoundLoopFloodWords(b *testing.B) {
	const rounds = 64
	for _, n := range []int{1024, 10_000, 100_000} {
		side := intSqrt(n)
		topo := graph.Grid(side, side)
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("grid%d/workers=%d", side*side, workers), func(b *testing.B) {
				runRoundLoopBench(b, topo, workers, rounds, newBenchFlood(rounds))
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
			runRoundLoopBench(b, topo, workers, 2*side, newBenchWave)
		})
		b.Run(fmt.Sprintf("grid%d/outbox/workers=%d", side*side, workers), func(b *testing.B) {
			runRoundLoopBench(b, topo, workers, 2*side, func(ctx *Context) Node {
				return &benchWaveOutboxNode{reached: ctx.ID() == 0}
			})
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
			runRoundLoopBench(b, topo, workers, rounds, newBenchPingPong(rounds))
		})
		b.Run(fmt.Sprintf("path1024/outbox/workers=%d", workers), func(b *testing.B) {
			runRoundLoopBench(b, topo, workers, rounds, func(ctx *Context) Node {
				return &benchPingPongOutboxNode{rounds: rounds, partner: pingPongPartner(ctx)}
			})
		})
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
			runRoundLoopBench(b, tc.topo, 1, rounds, newBenchFlood(rounds))
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
