package engine

import (
	"fmt"

	"qdc/internal/congest"
	"qdc/internal/quantum"
)

// Quantum is the Grover re-accounting backend of Example 1.1: stages execute
// classically on a congest.Network — so outputs, verdicts and termination
// are identical to Local — but their cost is re-accounted under the
// distributed-Grover protocol instead of the classical pipeline.
//
// The substitution rule is the one the paper applies to Set Disjointness: a
// stage that classically streams a b-bit input between two players at hop
// distance D (costing Θ(D + b/B) pipelined rounds) is replaced by ⌈√b⌉
// Grover iterations, each routing a (log b + 1)-qubit query register across
// the D hops, for ⌈√b⌉·D rounds (quantum.GroverRounds). The stream volume b
// is measured, not assumed: it is the largest total payload observed on any
// single directed edge during the classical execution — on a streaming
// stage the bottleneck edge carries the whole input exactly once. D is the
// diameter of the topology, computed at construction. A stage that sent no
// bits has nothing to search over and keeps its classical round count.
//
// Stats() reports the quantum-accounted cost (rounds = Grover rounds, bits =
// qubits on the wire, all of them counted in Stats.QuantumBits), which is
// what the experiment harness compares against the classical backends to
// measure the paper's crossover diameter; the observed classical cost of
// the same execution stays available through Report().
type Quantum struct {
	net      *congest.Network
	diameter int
	cancel   func() bool
	obs      StageObserver

	stats     Stats // quantum-accounted, returned by Stats()
	classical Stats // observed plain CONGEST cost of the same stages
	last      GroverStage
}

// GroverStage is the re-accounting of one stage under the Grover
// substitution.
type GroverStage struct {
	// StreamBits is the measured stream volume b: the largest total payload
	// carried by any single directed edge during the stage.
	StreamBits int
	// QueryQubits is the width of the routed query register, log₂ b + 1.
	QueryQubits int
	// ClassicalRounds is the observed round count of the classical
	// execution, Θ(D + b/B) for a pipelined stream.
	ClassicalRounds int
	// QuantumRounds is the re-accounted round count ⌈√b⌉·D (the classical
	// count unchanged when the stage sent no bits).
	QuantumRounds int
}

// NewQuantum returns a Runner executing stages on a fresh CONGEST network
// over the given topology under Grover re-accounting. A bandwidth <= 0
// selects congest.DefaultBandwidth.
func NewQuantum(topo congest.Topology, bandwidth int, seed int64) (*Quantum, error) {
	if topo == nil {
		return nil, ErrNilTopology
	}
	net, err := congest.NewNetwork(topo, bandwidth)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	net.SetSeed(seed)
	return &Quantum{net: net, diameter: topologyDiameter(topo)}, nil
}

// SetCancel installs a cancellation poll checked at every round boundary of
// subsequent stages; see congest.Options.Cancel.
func (q *Quantum) SetCancel(cancel func() bool) { q.cancel = cancel }

// SetObserver installs a per-stage observer for subsequent stages; nil
// removes it. The observer sees the *classical* execution's Result (the one
// whose per-round traffic actually exists) — the Grover re-accounting has no
// round-by-round trace, only the per-stage totals in Stats().
func (q *Quantum) SetObserver(obs StageObserver) { q.obs = obs }

// RunStage implements Runner. The stage runs classically (identical outputs
// to Local for the same topology, bandwidth and seed); its cost is folded
// into the quantum-accounted Stats via the Grover substitution.
func (q *Quantum) RunStage(factory congest.NodeFactory, inputs map[int]any, maxRounds int) (*congest.Result, error) {
	type directed struct{ from, to int }
	edgeBits := make(map[directed]int64)
	trace := func(round int, msg congest.Message) {
		edgeBits[directed{from: msg.From, to: msg.To}] += int64(msg.Bits)
	}
	res, err := runNetworkStage(q.net, &q.classical, q.obs, factory, inputs, congest.Options{MaxRounds: maxRounds, Trace: trace, Cancel: q.cancel})
	if res != nil {
		var stream int64
		for _, bits := range edgeBits {
			if bits > stream {
				stream = bits
			}
		}
		stage := GroverStage{StreamBits: int(stream), ClassicalRounds: res.Rounds}
		q.stats.Stages++
		if stream > 0 {
			stage.QueryQubits = quantum.GroverQueryQubits(stage.StreamBits)
			stage.QuantumRounds = quantum.GroverRounds(stage.StreamBits, q.diameter)
			qubits := int64(stage.QuantumRounds) * int64(stage.QueryQubits)
			q.stats.Messages += stage.QuantumRounds // one routed query register per round
			q.stats.Bits += qubits
			q.stats.QuantumBits += qubits
		} else {
			// Nothing to search over: the stage keeps its classical round
			// count and, having delivered no messages, is charged none.
			stage.QuantumRounds = res.Rounds
		}
		q.stats.Rounds += stage.QuantumRounds
		q.last = stage
	}
	return res, err
}

// topologyDiameter returns the largest hop distance between any two nodes,
// by a breadth-first search from every node over the topology's neighbour
// lists, so every topology is charged the same D for the same edge set. A
// disconnected topology (on which the runners would hit the round limit
// anyway) reports the node count as a conservative stand-in, and one below
// two nodes reports 1. The search skips a neighbour ID outside the
// topology; the network reports it as an error when a stage runs.
func topologyDiameter(topo congest.Topology) int {
	n := topo.N()
	if n < 2 {
		return 1
	}
	dist := make([]int, n)
	queue := make([]int, 0, n)
	diameter := 0
	for src := range n {
		for v := range dist {
			dist[v] = -1
		}
		dist[src] = 0
		queue = append(queue[:0], src)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for i := range topo.Degree(v) {
				if u, _ := topo.Neighbor(v, i); uint(u) < uint(n) && dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		if len(queue) < n {
			return n
		}
		diameter = max(diameter, dist[queue[n-1]])
	}
	return diameter
}

// Bandwidth implements Runner.
func (q *Quantum) Bandwidth() int { return q.net.Bandwidth() }

// Size implements Runner.
func (q *Quantum) Size() int { return q.net.Size() }

// Stats implements Runner: the quantum-accounted cost.
func (q *Quantum) Stats() Stats { return q.stats }

// Diameter returns the hop diameter used as the query-routing distance D.
func (q *Quantum) Diameter() int { return q.diameter }

// QuantumReport summarises a Grover-re-accounted execution for the
// experiment harness: both cost models of the same run, side by side.
type QuantumReport struct {
	// Quantum is the Grover-accounted cost (identical to Stats()).
	Quantum Stats
	// Classical is the observed plain CONGEST cost of the same stages.
	Classical Stats
	// Diameter is the query-routing distance D.
	Diameter int
	// LastStage is the re-accounting of the most recent stage.
	LastStage GroverStage
}

// Report returns the current summary.
func (q *Quantum) Report() QuantumReport {
	return QuantumReport{Quantum: q.stats, Classical: q.classical, Diameter: q.diameter, LastStage: q.last}
}

// Compile-time interface check.
var _ Runner = (*Quantum)(nil)
