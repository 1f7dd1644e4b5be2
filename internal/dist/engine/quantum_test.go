package engine

import (
	"errors"
	"testing"

	"qdc/internal/congest"
	"qdc/internal/graph"
	"qdc/internal/quantum"
)

// streamNode is a minimal pipelined stream: node 0 pushes `total` bits
// rightwards in bandwidth-sized chunks, interior nodes forward, the last
// node swallows them; everyone terminates once the stream has drained.
type streamNode struct {
	total int
	sent  int
	idle  int
}

func (s *streamNode) Init(*congest.Context) {}

func (s *streamNode) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	id, last := ctx.ID(), ctx.N()-1
	var out []congest.Message
	for _, m := range inbox {
		if id != last {
			out = congest.AppendWordMessage(out, id+1, m.Kind, m.W0, m.W1, m.Bits)
		}
	}
	if id == 0 && s.sent < s.total {
		chunk := ctx.Bandwidth()
		if s.total-s.sent < chunk {
			chunk = s.total - s.sent
		}
		s.sent += chunk
		out = congest.AppendWordMessage(out, 1, 0, uint64(s.sent), 0, chunk)
	}
	if len(out) > 0 {
		s.idle = 0
		return out, false
	}
	s.idle++
	return nil, s.idle > ctx.N()
}

func TestNewQuantumNilTopology(t *testing.T) {
	if _, err := NewQuantum(nil, 8, 1); !errors.Is(err, ErrNilTopology) {
		t.Fatalf("err = %v, want ErrNilTopology", err)
	}
}

func TestQuantumGroverReaccounting(t *testing.T) {
	const (
		nodes     = 9
		bandwidth = 4
		b         = 32
	)
	d := nodes - 1
	factory := func(*congest.Context) congest.Node { return &streamNode{total: b} }

	local, err := NewLocal(graph.Path(nodes), bandwidth, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.RunStage(factory, nil, 0); err != nil {
		t.Fatal(err)
	}

	q, err := NewQuantum(graph.Path(nodes), bandwidth, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q.Diameter() != d {
		t.Fatalf("Diameter = %d, want %d", q.Diameter(), d)
	}
	res, err := q.RunStage(factory, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatal("stage did not terminate")
	}

	rep := q.Report()
	// The classical execution is bit-for-bit the Local one.
	if rep.Classical != local.Stats() {
		t.Errorf("classical accounting diverged: %+v vs %+v", rep.Classical, local.Stats())
	}
	// Every edge of the path carries the whole b-bit stream once, so the
	// measured stream volume is exactly b and the quantum re-accounting is
	// the Grover formula.
	if rep.LastStage.StreamBits != b {
		t.Errorf("StreamBits = %d, want %d", rep.LastStage.StreamBits, b)
	}
	wantRounds := quantum.GroverRounds(b, d)
	if got := q.Stats().Rounds; got != wantRounds {
		t.Errorf("quantum rounds = %d, want GroverRounds(%d,%d) = %d", got, b, d, wantRounds)
	}
	wantBits := int64(wantRounds) * int64(quantum.GroverQueryQubits(b))
	if got := q.Stats(); got.Bits != wantBits || got.QuantumBits != wantBits {
		t.Errorf("quantum bits = %d/%d, want %d qubits", got.Bits, got.QuantumBits, wantBits)
	}
	if q.Stats().Stages != 1 || q.Stats().Messages != wantRounds {
		t.Errorf("stats = %+v, want one stage and one message per round", q.Stats())
	}
}

func TestQuantumSilentStageKeepsClassicalRounds(t *testing.T) {
	q, err := NewQuantum(graph.Path(4), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A stage that never communicates has nothing to Grover-search.
	factory := func(*congest.Context) congest.Node { return &streamNode{total: 0} }
	if _, err := q.RunStage(factory, nil, 0); err != nil {
		t.Fatal(err)
	}
	rep := q.Report()
	if q.Stats().Rounds != rep.Classical.Rounds {
		t.Errorf("silent stage re-accounted %d rounds, want classical %d", q.Stats().Rounds, rep.Classical.Rounds)
	}
	if q.Stats().Bits != 0 || q.Stats().QuantumBits != 0 || q.Stats().Messages != 0 {
		t.Errorf("silent stage charged communication: %+v", q.Stats())
	}
}

func TestQuantumStatsAccumulateAcrossStages(t *testing.T) {
	q, err := NewQuantum(graph.Path(5), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(*congest.Context) congest.Node { return &streamNode{total: 16} }
	before := q.Stats()
	if _, err := q.RunStage(factory, nil, 0); err != nil {
		t.Fatal(err)
	}
	first := q.Stats().Sub(before)
	if _, err := q.RunStage(factory, nil, 0); err != nil {
		t.Fatal(err)
	}
	second := q.Stats().Sub(first)
	if first != second {
		t.Errorf("identical stages accounted differently: %+v vs %+v", first, second)
	}
	if q.Stats().Stages != 2 || q.Stats().Rounds != 2*first.Rounds {
		t.Errorf("stats did not accumulate: %+v", q.Stats())
	}
}

func TestQuantumCancel(t *testing.T) {
	q, err := NewQuantum(graph.Path(3), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	q.SetCancel(func() bool { return true })
	factory := func(*congest.Context) congest.Node { return &streamNode{total: 64} }
	if _, err := q.RunStage(factory, nil, 1<<30); !errors.Is(err, congest.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

func TestTopologyDiameter(t *testing.T) {
	cycle, err := graph.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	split := graph.New(6)
	split.MustAddEdge(0, 1, 1)
	split.MustAddEdge(1, 2, 1)
	split.MustAddEdge(3, 4, 1)
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"path9", graph.Path(9), 8},
		{"cycle8", cycle, 4},
		{"star7", graph.Star(7), 2},
		{"complete5", graph.Complete(5), 1},
		// A disconnected topology is charged D = n, one below two nodes D = 1.
		{"two-paths", split, 6},
		{"single", graph.New(1), 1},
	}
	// Each graph is measured as built and as its CSR: the charged D
	// depends on the edge set only.
	for _, c := range cases {
		for _, topo := range []congest.Topology{c.g, graph.FromGraph(c.g)} {
			if got := topologyDiameter(topo); got != c.want {
				t.Errorf("%s as %T: diameter = %d, want %d", c.name, topo, got, c.want)
			}
		}
	}
}
