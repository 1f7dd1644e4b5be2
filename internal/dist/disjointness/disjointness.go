// Package disjointness reproduces Example 1.1 of the paper: two nodes at
// hop distance D in a CONGEST(B) network hold b-bit sets X and Y and want to
// decide whether X ∩ Y = ∅. Classically Θ(D + b/B) rounds are necessary and
// sufficient (pipeline the bits along the path); the distributed-Grover
// protocol needs O(√b · D) rounds, so quantum communication wins exactly
// when the distance is small compared with √b — the one problem family in
// the paper where a quantum speed-up does exist.
//
// The package provides the two cost formulas, the crossover diameter at
// which the classical protocol takes over, and RunClassical, the real
// pipelined protocol executed on a path network through engine.NewLocal.
package disjointness

import (
	"errors"
	"fmt"
	"math"

	"qdc/internal/congest"
	"qdc/internal/dist/engine"
	"qdc/internal/graph"
	"qdc/internal/quantum"
)

// ErrBadInput reports invalid protocol parameters.
var ErrBadInput = errors.New("disjointness: invalid parameters")

// ClassicalRounds is the Θ(D + b/B) round cost of the classical pipelined
// protocol for b-bit inputs over bandwidth-B links at hop distance D.
func ClassicalRounds(b, bandwidth, distance int) int {
	if b < 1 || bandwidth < 1 || distance < 1 {
		return 0
	}
	return distance + (b+bandwidth-1)/bandwidth
}

// QuantumRounds is the O(√b · D) round cost of the distributed Grover
// protocol: √b search iterations, each propagating its query across the
// distance D separating the two players. It is quantum.GroverRounds under
// its Example 1.1 name, and the formula engine.NewQuantum re-accounts the
// pipelined protocol with.
func QuantumRounds(b, distance int) int {
	return quantum.GroverRounds(b, distance)
}

// MeasuredOverhead bounds the rounds the executed pipelined protocol pays
// beyond the ClassicalRounds formula: the verdict's return trip across the
// distance separating the players plus the constant rounds that create and
// terminate it. Predictions made from the formulas are guaranteed against
// measured runs only once the formula margin exceeds this slack — the
// crossover report and the property tests both draw their "decisive" band
// from it.
func MeasuredOverhead(distance int) int {
	if distance < 0 {
		return 4
	}
	return distance + 4
}

// CrossoverDiameter returns the smallest distance D at which the classical
// protocol is at least as fast as the quantum one, i.e. the diameter beyond
// which the Example 1.1 speed-up disappears. For b <= 1 the quantum
// protocol never loses and the crossover is reported as math.MaxInt32.
func CrossoverDiameter(b, bandwidth int) int {
	if b < 1 || bandwidth < 1 {
		return 0
	}
	q := int(math.Ceil(math.Sqrt(float64(b))))
	if q <= 1 {
		return math.MaxInt32
	}
	c := (b + bandwidth - 1) / bandwidth
	// Smallest D with q·D >= D + c.
	return (c + q - 2) / (q - 1)
}

// Result is the outcome of one execution of the classical protocol.
type Result struct {
	// Disjoint reports whether the two sets are disjoint.
	Disjoint bool
	// Rounds is the measured CONGEST round count, Θ(D + b/B).
	Rounds int
	// Stats is the full communication accounting of the run.
	Stats engine.Stats
}

// Messages of the pipelined protocol. Unlike the multi-payload stages of
// verify and mst, no engine.TagBits are charged: on a path the direction of
// travel already distinguishes the two message kinds (data flows rightwards,
// the answer leftwards), so a type tag would carry zero information — and
// full-bandwidth chunks leave no room for one at B = 1, the bandwidth
// Example 1.1 is stated at. (Message.Kind is simulator-local routing
// metadata, not wire content; the charged Bits are unchanged.)
//
// A chunk travels bit-packed into the two payload words, with Message.Bits
// doubling as its length. At bandwidths above 128 bits a round's chunk
// goes as several such messages on the same edge, in order, which the
// per-edge budget charges together as one B-bit chunk. The answer is a
// flag.
const (
	kindChunk  uint8 = 1
	kindAnswer uint8 = 2
	// maxWordChunk is the widest chunk one message carries.
	maxWordChunk = 128
)

// packChunk bit-packs up to 128 protocol bits into two payload words; bit i
// of the chunk lands in bit i of W0 (i < 64) or bit i-64 of W1.
func packChunk(chunk []int) (w0, w1 uint64) {
	for i, b := range chunk {
		if b == 1 {
			if i < 64 {
				w0 |= 1 << uint(i)
			} else {
				w1 |= 1 << uint(i-64)
			}
		}
	}
	return w0, w1
}

// appendUnpacked appends the length-bit chunk packed in (w0, w1) to dst.
func appendUnpacked(dst []int, w0, w1 uint64, length int) []int {
	for i := 0; i < length; i++ {
		var bit uint64
		if i < 64 {
			bit = w0 >> uint(i) & 1
		} else {
			bit = w1 >> uint(i-64) & 1
		}
		dst = append(dst, int(bit))
	}
	return dst
}

// pathNode runs the pipelined protocol: the left endpoint streams X in
// B-bit chunks, interior nodes forward the stream rightwards, the right
// endpoint reassembles X, intersects it with Y and floods the one-bit
// answer back; every node terminates once the answer passes through it.
// A node sets disjoint in the round it answers, and votes done only from
// then on, so RunOn reads node 0's verdict from the node slab.
type pathNode struct {
	x, y     []int
	sent     int
	received []int
	answered bool
	disjoint bool
}

func (p *pathNode) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	id, last := ctx.ID(), ctx.N()-1
	out := ctx.Outbox()

	for i := range inbox {
		m := &inbox[i]
		switch m.Kind {
		case kindChunk:
			if id == last {
				p.received = appendUnpacked(p.received, m.W0, m.W1, m.Bits)
			} else {
				// Forward the stream rightwards, one hop per round.
				out = congest.AppendWordMessage(out, id+1, kindChunk, m.W0, m.W1, m.Bits)
			}
		case kindAnswer:
			p.answered, p.disjoint = true, m.Bool0()
			if id > 0 {
				out = congest.AppendWordMessage(out, id-1, kindAnswer, m.W0, 0, congest.BitsForBool)
			}
		}
	}

	// Left endpoint: stream the next B bits of X, at most 128 a message.
	if id == 0 && p.sent < len(p.x) {
		hi := min(p.sent+ctx.Bandwidth(), len(p.x))
		for lo := p.sent; lo < hi; lo += maxWordChunk {
			chunk := p.x[lo:min(lo+maxWordChunk, hi)]
			w0, w1 := packChunk(chunk)
			out = congest.AppendWordMessage(out, 1, kindChunk, w0, w1, len(chunk))
		}
		p.sent = hi
	}

	// Right endpoint: once X has fully arrived, decide and answer.
	if id == last && !p.answered && len(p.received) >= len(p.y) && len(p.y) > 0 {
		disjoint := true
		for i, yi := range p.y {
			if yi == 1 && p.received[i] == 1 {
				disjoint = false
				break
			}
		}
		p.answered, p.disjoint = true, disjoint
		out = congest.AppendWordMessage(out, id-1, kindAnswer, congest.WordFromBool(disjoint), 0, congest.BitsForBool)
	}

	return out, p.answered
}

// RunClassical executes the pipelined protocol on a fresh path of the given
// number of nodes: node 0 holds x, the node at the far end holds y, and the
// link bandwidth is B bits per round. It returns the network-wide verdict
// and the measured Θ(D + b/B) cost.
func RunClassical(nodes, bandwidth int, x, y []int, seed int64) (*Result, error) {
	if nodes < 2 || bandwidth < 1 {
		return nil, fmt.Errorf("%w: nodes=%d B=%d", ErrBadInput, nodes, bandwidth)
	}
	r, err := engine.NewLocal(graph.Path(nodes), bandwidth, seed)
	if err != nil {
		return nil, err
	}
	return RunOn(r, x, y)
}

// RunOn executes the pipelined protocol on an existing runner whose
// topology must be the path 0-1-...-(n-1): node 0 holds x and node n-1
// holds y. Running through a shared runner lets the experiment harness
// swap backends (local, parallel) while keeping the accounting a Stats
// delta attributable to this protocol alone. A non-path topology surfaces
// as a congest routing error.
func RunOn(r engine.Runner, x, y []int) (*Result, error) {
	if r == nil || len(x) < 1 || len(x) != len(y) {
		return nil, fmt.Errorf("%w: |x|=%d |y|=%d", ErrBadInput, len(x), len(y))
	}
	for i := range x {
		if x[i]&^1 != 0 || y[i]&^1 != 0 {
			return nil, fmt.Errorf("%w: inputs must be 0/1 bit slices", ErrBadInput)
		}
	}
	nodes := r.Size()
	if nodes < 2 {
		return nil, fmt.Errorf("%w: runner has %d nodes", ErrBadInput, nodes)
	}
	chunks := (len(x) + r.Bandwidth() - 1) / r.Bandwidth()
	maxRounds := chunks + 2*nodes + 16
	before := r.Stats()
	path := make([]pathNode, nodes)
	path[0].x, path[nodes-1].y = x, y
	if _, err := r.RunStage(func(ctx *congest.Context) congest.Node { return &path[ctx.ID()] }, nil, maxRounds); err != nil {
		return nil, err
	}
	stats := r.Stats().Sub(before)
	return &Result{Disjoint: path[0].disjoint, Rounds: stats.Rounds, Stats: stats}, nil
}
