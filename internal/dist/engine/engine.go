// Package engine defines the execution layer shared by every distributed
// algorithm in internal/dist: a Runner abstraction under which a CONGEST node
// program (a congest.NodeFactory) can be executed in stages, with aggregated
// round/message/bit accounting, independent of the backend that actually
// carries the messages.
//
// The paper's three cost models are one execution charged three ways, and
// the backends say exactly that. A stage runs in one place, Local.RunTraced
// on a congest.Network; each backend is a Local plus its accounting:
//
//   - NewLocal (this package) is the plain CONGEST(B) model of Section 2.1
//     of the paper. Parallelism is a knob of this backend, not a backend of
//     its own: NewParallel returns the same Local runner with rounds stepped
//     across GOMAXPROCS worker goroutines (SetWorkers adjusts the count),
//     bit-for-bit equivalent.
//   - NewQuantum (this package) is a Local whose stages also feed a
//     per-message trace of the stream volume, from which every streaming
//     stage is re-accounted with the distributed-Grover round formula of
//     Example 1.1 (internal/quantum.GroverRounds): the quantum cost model
//     under which Set Disjointness beats the classical Θ(D + b/B) pipeline
//     at small diameters.
//   - simulation.Runner (internal/simulation) is a Local on the lower-bound
//     network whose per-message trace charges every message to the three
//     parties of the Server model (the Quantum Simulation Theorem,
//     Theorem 3.5).
//
// Because all backends run the same stage through the identical RunStage
// contract, every algorithm in internal/dist/{verify,mst,disjointness}
// executes unchanged under any accounting, with the same results; see
// DESIGN.md for the substitution table. A stage has one way in and one way
// out: the algorithm allocates its node programs from one slab, its factory
// builds node v in the slab from v's input, and each node's result stays in
// its node program, which the algorithm reads once RunStage returns. The
// congest.Result a stage returns holds its costs only.
//
// Every constructor takes a congest.Topology, the view that lists each
// node's neighbours by rank. *graph.Graph satisfies it, and so does
// *graph.CSR, the flat-table topology the streaming graph.Builder produces
// for million-node scenarios (see internal/exp's buildTopology). The
// backends are agnostic to which one they were handed: identical seeds
// over identical edge sets produce bit-identical runs, and the quantum
// backend's diameter, either way.
package engine

import (
	"errors"
	"fmt"
	"runtime"

	"qdc/internal/congest"
)

// ErrNilTopology reports a local runner constructed without a topology.
var ErrNilTopology = errors.New("engine: nil topology")

// ErrStageInputs reports a stage handed a non-empty inputs map: a node
// program gets its input from the factory that builds it.
var ErrStageInputs = errors.New("engine: non-empty stage inputs; the factory builds each node's input into its program")

// TagBits is the message-type tag size every dist algorithm charges on top
// of a payload's fields, so mixed-payload stages stay honestly accounted.
const TagBits = 2

// Stats aggregates the cost of every stage executed by a Runner so far.
type Stats struct {
	// Stages is the number of RunStage calls that executed.
	Stages int
	// Rounds is the total number of synchronous rounds across all stages.
	Rounds int
	// Messages is the total number of messages delivered.
	Messages int
	// Bits is the total number of bits sent over all edges in all rounds,
	// classical bits and qubits together.
	Bits int64
	// QuantumBits is the subset of Bits carried as qubits: quantum-marked
	// congest messages plus the query registers the Grover re-accounting
	// backend charges. Zero under the purely classical backends.
	QuantumBits int64 `json:",omitempty"`
}

// Sub returns the difference s − prev, the cost incurred between two
// snapshots of the same Runner. It is how algorithms report their own cost
// when sharing a Runner with earlier stages.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Stages:      s.Stages - prev.Stages,
		Rounds:      s.Rounds - prev.Rounds,
		Messages:    s.Messages - prev.Messages,
		Bits:        s.Bits - prev.Bits,
		QuantumBits: s.QuantumBits - prev.QuantumBits,
	}
}

// StageObserver receives every stage's full congest.Result immediately after
// the stage completes (successfully or not — error stages still report their
// partial result). It is the hook the observability layer (internal/obs via
// internal/exp) uses to feed per-round traffic histograms without touching
// the accounting: backends with an observer installed record the per-round
// classical/quantum split (congest.Options.PerRound), which changes no field
// the Stats fold reads and nothing a node program sees, so observed and
// unobserved runs produce identical Stats and node results. Observers run on
// the stage's goroutine; a nil observer costs nothing.
type StageObserver interface {
	// StageDone is called once per completed stage with the stage's result.
	// The Result (including PerRound) is owned by the caller afterwards only
	// for reading; observers must not retain or mutate it past the call.
	StageDone(res *congest.Result)
}

// Runner executes CONGEST node programs stage by stage on some backend.
//
// A stage is one complete run of a node program on every node of the
// network: RunStage builds every node through the factory, which hands
// each node program its input, runs the nodes until global termination (or
// maxRounds; maxRounds <= 0 selects the backend's default), and returns
// the per-stage result. Stats accumulate across stages, so a multi-stage
// algorithm's total cost is the difference between the Stats snapshots
// taken around its stages.
type Runner interface {
	// RunStage executes one node program to completion. inputs must be
	// empty: every backend refuses a non-empty map with ErrStageInputs
	// before the stage runs. The parameter remains because perfbench's
	// timedRunner, in its own module, implements Runner with it.
	RunStage(factory congest.NodeFactory, inputs map[int]any, maxRounds int) (*congest.Result, error)
	// Bandwidth returns the per-edge, per-round bit budget B.
	Bandwidth() int
	// Size returns the number of nodes of the underlying network.
	Size() int
	// Stats returns the accumulated cost of all stages run so far.
	Stats() Stats
}

// Local is the plain CONGEST(B) backend: stages run directly on a
// congest.Network with no extra accounting. It is also the one place any
// stage runs: Quantum and simulation.Runner embed a Local and hand their
// per-message accounting to RunTraced, so the network, the worker count,
// the cancel poll, the observer and the classical Stats are the Local's
// under every backend. With more than one worker each round splits the
// node IDs into one contiguous range per goroutine, and every worker
// steps, validates and delivers for its own range
// (congest.Options.Workers). Because CONGEST nodes interact only through
// messages delivered at round boundaries and every node owns a private
// random stream, the run is bit-for-bit identical to the sequential one —
// same Stats, node results and verdicts (TestNewParallelMatchesLocal pins
// this, and the whole suite runs under -race in CI).
type Local struct {
	net     *congest.Network
	workers int
	cancel  func() bool
	obs     StageObserver
	stats   Stats
}

// NewLocal returns a Runner executing stages on a fresh CONGEST network over
// the given topology. A bandwidth <= 0 selects congest.DefaultBandwidth.
func NewLocal(topo congest.Topology, bandwidth int, seed int64) (*Local, error) {
	if topo == nil {
		return nil, ErrNilTopology
	}
	net, err := congest.NewNetwork(topo, bandwidth)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	net.SetSeed(seed)
	return &Local{net: net}, nil
}

// NewParallel returns a Local runner that steps every round concurrently
// across GOMAXPROCS worker goroutines.
func NewParallel(topo congest.Topology, bandwidth int, seed int64) (*Local, error) {
	l, err := NewLocal(topo, bandwidth, seed)
	if err == nil {
		l.workers = runtime.GOMAXPROCS(0)
	}
	return l, err
}

// SetWorkers sets the number of stepping goroutines for subsequent stages.
// Values <= 1 step sequentially; the experiment harness uses this to avoid
// oversubscription when many runners execute side by side.
func (l *Local) SetWorkers(workers int) { l.workers = workers }

// SetCancel installs a cancellation poll checked at every round boundary of
// subsequent stages; see congest.Options.Cancel.
func (l *Local) SetCancel(cancel func() bool) { l.cancel = cancel }

// SetObserver installs a per-stage observer for subsequent stages; nil
// removes it. See StageObserver.
func (l *Local) SetObserver(obs StageObserver) { l.obs = obs }

// RunStage implements Runner.
func (l *Local) RunStage(factory congest.NodeFactory, inputs map[int]any, maxRounds int) (*congest.Result, error) {
	return l.RunTraced(factory, inputs, maxRounds, nil)
}

// RunTraced runs one stage, calling trace for every accepted message (see
// congest.Options.Trace; nil traces nothing), and folds the result into
// Stats. Every backend runs its stages here. The factory builds each node
// program with its input, so a non-empty inputs map reaches no node: it is
// refused with ErrStageInputs before anything runs, and Stats stay as they
// were. With an observer installed the stage also records the per-round
// traffic split and hands the result to the observer — including partial
// results of failed stages.
func (l *Local) RunTraced(factory congest.NodeFactory, inputs map[int]any, maxRounds int, trace func(round int, msg congest.Message)) (*congest.Result, error) {
	if len(inputs) > 0 {
		return nil, fmt.Errorf("%w: got %d entries", ErrStageInputs, len(inputs))
	}
	res, err := l.net.Run(factory, congest.Options{MaxRounds: maxRounds, Trace: trace,
		Workers: l.workers, Cancel: l.cancel, PerRound: l.obs != nil})
	if res != nil {
		l.stats.Stages++
		l.stats.Rounds += res.Rounds
		l.stats.Messages += res.TotalMessages
		l.stats.Bits += res.TotalBits
		l.stats.QuantumBits += res.QuantumBits
		if l.obs != nil {
			l.obs.StageDone(res)
		}
	}
	if err != nil {
		return res, fmt.Errorf("engine: stage %d: %w", l.stats.Stages, err)
	}
	return res, nil
}

// Bandwidth implements Runner.
func (l *Local) Bandwidth() int { return l.net.Bandwidth() }

// Size implements Runner.
func (l *Local) Size() int { return l.net.Size() }

// Stats implements Runner.
func (l *Local) Stats() Stats { return l.stats }

// Compile-time interface check.
var _ Runner = (*Local)(nil)
