// Package simulation makes the Quantum Simulation Theorem (Theorem 3.5,
// Section 8 / Appendix D.2 of the paper) executable: it runs an arbitrary
// CONGEST algorithm on the lower-bound network N of package lbnetwork while
// re-accounting every message to the three parties of the Server model.
//
// At time t Carol owns the first t+1 columns of N, David owns the last t+1
// columns, and the server owns everything in between. A message sent in
// round t whose sender is owned by Carol (or David) but whose receiver will
// be owned by a different party must actually be communicated by Carol
// (respectively David) and is charged to the Server-model cost; every other
// message is simulated locally by its owner (or sent by the server) for
// free. The theorem states that as long as the algorithm finishes within
// L/2 − 2 rounds, the charged cost is O(B·log L) per round — only the O(log L)
// highway edges ever cross the ownership frontier — and therefore
// O(B·log L·T) in total.
//
// The Runner type implements engine.Runner, so every distributed algorithm
// in internal/dist can be executed under this accounting without change.
package simulation

import (
	"errors"

	"qdc/internal/congest"
	"qdc/internal/dist/engine"
	"qdc/internal/lbnetwork"
)

// ErrNilNetwork reports a runner constructed without a lower-bound network.
var ErrNilNetwork = errors.New("simulation: nil network")

// Runner executes CONGEST stages on the lower-bound network while measuring
// the Server-model communication of the induced three-party simulation. It
// is an engine.Local over the network's graph plus that accounting: each
// stage runs through the embedded Local with a per-message trace that
// charges the message to its owner, so the stage's Result and the Runner's
// Stats, cancel poll, worker count and observer are the Local's.
type Runner struct {
	*engine.Local
	net *lbnetwork.Network

	carolBits  int64
	davidBits  int64
	serverBits int64
	// crossingMessages counts messages that had to be communicated between
	// parties (charged or not).
	crossingMessages int
}

// NewRunner returns a simulation runner over the lower-bound network.
func NewRunner(net *lbnetwork.Network, bandwidth int, seed int64) (*Runner, error) {
	if net == nil {
		return nil, ErrNilNetwork
	}
	l, err := engine.NewLocal(net.Graph, bandwidth, seed)
	if err != nil {
		return nil, err
	}
	return &Runner{Local: l, net: net}, nil
}

// RunStage implements engine.Runner. Ownership time continues across stages:
// the t-th round of the whole multi-stage execution uses the partition S^t.
func (r *Runner) RunStage(factory congest.NodeFactory, inputs map[int]any, maxRounds int) (*congest.Result, error) {
	baseRound := r.Stats().Rounds
	budget := r.net.MaxSimulationRounds()
	trace := func(round int, msg congest.Message) {
		t := baseRound + round // global 1-based round index
		// Ownership indices are capped at the theorem's round budget; past
		// that point the frontiers would meet and the accounting below
		// over-charges, which is the conservative direction.
		prodTime := t - 1
		consTime := t
		if prodTime > budget {
			prodTime = budget
		}
		if consTime > budget {
			consTime = budget
		}
		producer := r.net.OwnerAt(msg.From, prodTime)
		consumer := r.net.OwnerAt(msg.To, consTime)
		if producer == consumer {
			return
		}
		r.crossingMessages++
		switch producer {
		case lbnetwork.OwnerCarol:
			r.carolBits += int64(msg.Bits)
		case lbnetwork.OwnerDavid:
			r.davidBits += int64(msg.Bits)
		default:
			r.serverBits += int64(msg.Bits)
		}
	}
	return r.Local.RunTraced(factory, inputs, maxRounds, trace)
}

// CarolBits returns the bits charged to Carol (messages produced by
// Carol-owned nodes that another party had to receive).
func (r *Runner) CarolBits() int64 { return r.carolBits }

// DavidBits returns the bits charged to David.
func (r *Runner) DavidBits() int64 { return r.davidBits }

// ServerModelCost returns the Server-model cost of the simulated execution:
// the bits sent by Carol plus the bits sent by David (server messages are
// free, exactly as in Definition 3.1).
func (r *Runner) ServerModelCost() int64 { return r.carolBits + r.davidBits }

// FreeServerBits returns the bits carried by messages between ownership
// regions that the server produced (communicated for free).
func (r *Runner) FreeServerBits() int64 { return r.serverBits }

// CrossingMessages returns the number of messages that crossed ownership
// regions (charged or free).
func (r *Runner) CrossingMessages() int { return r.crossingMessages }

// PerRoundBound returns the per-round Server-model cost bound of the
// theorem's accounting: Carol and David each need to forward at most the
// messages on the O(log L) highway frontier edges plus the state hand-off of
// the single highway vertex entering their region, i.e. at most 3·k·B bits
// each, 6·k·B in total per round (Appendix D.2).
func (r *Runner) PerRoundBound() int64 {
	return int64(6 * r.net.K * r.Bandwidth())
}

// TheoremBound returns the total Server-model cost bound O(B·log L·T) for
// the number of rounds executed so far.
func (r *Runner) TheoremBound() int64 {
	return r.PerRoundBound() * int64(r.Stats().Rounds)
}

// WithinRoundBudget reports whether the execution finished within the
// L/2 − 2 round budget under which Theorem 3.5's accounting is exact.
func (r *Runner) WithinRoundBudget() bool {
	return r.Stats().Rounds <= r.net.MaxSimulationRounds()
}

// Report summarises a simulated execution for the experiment harness.
type Report struct {
	// Rounds is the total number of rounds across all stages.
	Rounds int
	// CarolBits, DavidBits and ServerModelCost are the charged costs.
	CarolBits, DavidBits, ServerModelCost int64
	// TheoremBound is the O(B·log L·T) bound for the executed rounds.
	TheoremBound int64
	// WithinRoundBudget reports whether Rounds <= L/2 − 2.
	WithinRoundBudget bool
	// WithinTheoremBound reports whether the measured Server-model cost is
	// at most the theorem's bound.
	WithinTheoremBound bool
}

// Report returns the current summary.
func (r *Runner) Report() Report {
	return Report{
		Rounds:             r.Stats().Rounds,
		CarolBits:          r.carolBits,
		DavidBits:          r.davidBits,
		ServerModelCost:    r.ServerModelCost(),
		TheoremBound:       r.TheoremBound(),
		WithinRoundBudget:  r.WithinRoundBudget(),
		WithinTheoremBound: r.ServerModelCost() <= r.TheoremBound(),
	}
}

// Compile-time interface check.
var _ engine.Runner = (*Runner)(nil)
