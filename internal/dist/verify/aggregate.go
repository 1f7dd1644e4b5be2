package verify

import (
	"qdc/internal/congest"
	"qdc/internal/dist/engine"
)

// agg is the value combined up the BFS tree by the aggregation stage: one
// ANDed flag plus three summed counters. Every verification predicate in
// this package is a function of one such aggregate, so a single O(D)-round
// convergecast answers all of them.
type agg struct {
	// OK is ANDed across nodes (true when every node's local check passes).
	OK bool
	// Supported counts nodes with at least one incident M-edge.
	Supported int
	// Leaders counts supported nodes whose component label equals their ID,
	// i.e. the number of connected components of M.
	Leaders int
	// Degree sums the M-degrees, so Degree/2 is the number of M-edges.
	Degree int
}

func combine(a, b agg) agg {
	return agg{
		OK:        a.OK && b.OK,
		Supported: a.Supported + b.Supported,
		Leaders:   a.Leaders + b.Leaders,
		Degree:    a.Degree + b.Degree,
	}
}

// Message kinds of the aggregation stage. Every message charges a small
// type tag (2 bits) plus its fields; the golden digests in words_test.go
// hold the accounting.
const (
	kindToken uint8 = 4 // BFS wave; W0 is the receiver's depth
	kindChild uint8 = 5 // reply to a token; W0 is the is-child flag
	kindUp    uint8 = 6 // convergecast; W0/W1 encode the combined agg
	kindDown  uint8 = 7 // broadcast; W0 is the root's verdict
)

// encodeAgg packs an aggregate into two payload words: Supported and
// Leaders share W0 (32 bits each, both bounded by n), and W1 carries the
// degree sum shifted over the ANDed flag. decodeAgg inverts it.
func encodeAgg(a agg) (w0, w1 uint64) {
	return congest.PackIDs(a.Supported, a.Leaders),
		uint64(a.Degree)<<1 | congest.WordFromBool(a.OK)
}

func decodeAgg(w0, w1 uint64) agg {
	s, l := congest.UnpackIDs(w0)
	return agg{OK: w1&1 == 1, Supported: s, Leaders: l, Degree: int(w1 >> 1)}
}

const tagBits = engine.TagBits

func tokenBits(dist int) int { return tagBits + congest.BitsForInt(dist) }
func upBits(a agg) int {
	return tagBits + congest.BitsForBool +
		congest.BitsForInt(a.Supported) + congest.BitsForInt(a.Leaders) + congest.BitsForInt(a.Degree)
}

const (
	childBits = tagBits + congest.BitsForBool
	downBits  = tagBits + congest.BitsForBool
)

// aggInput is the per-node input of the aggregation stage: the node's local
// contribution, computed from its own problem input (and the outputs of its
// earlier stages, fed back to the same node).
type aggInput struct{ Local agg }

// aggNode implements the O(D)-round global aggregation: a BFS tree is grown
// from node 0 with explicit child detection, the aggregates are combined
// bottom-up along the tree, the root evaluates the decision predicate, and
// the one-bit verdict is broadcast back down. Every message is O(log n)
// bits, so the whole stage fits the CONGEST budget and — crucially for the
// degree-two check of Theorem 3.5 — finishes in O(D) rounds. A node votes
// done only once it has answered, and it sets answer before that, so
// runAggregate reads the root's answer from the node slab.
type aggNode struct {
	decide func(agg) bool

	acc        agg
	dist       int
	parent     int
	pending    map[int]struct{}
	children   []int
	childUps   int
	sentUp     bool
	answer     bool
	haveAnswer bool
	answered   bool
}

func (a *aggNode) Init(ctx *congest.Context) {
	in, _ := ctx.Input().(aggInput)
	a.acc, a.dist, a.parent = in.Local, -1, -1
	if ctx.ID() == 0 {
		a.dist = 0
	}
}

func (a *aggNode) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	out := ctx.Outbox()

	// The root starts the BFS wave in round 1.
	if round == 1 && ctx.ID() == 0 {
		a.pending = make(map[int]struct{})
		for i := range ctx.Degree() {
			v := ctx.NeighborAt(i)
			a.pending[v] = struct{}{}
			out = congest.AppendWordMessage(out, v, kindToken, 1, 0, tokenBits(1))
		}
	}

	var tokenSenders []int
	tokenDist := -1
	for i := range inbox {
		m := &inbox[i]
		switch m.Kind {
		case kindToken:
			tokenSenders = append(tokenSenders, m.From)
			tokenDist = m.Int0()
		case kindChild:
			delete(a.pending, m.From)
			if m.Bool0() {
				a.children = append(a.children, m.From)
			}
		case kindUp:
			a.acc = combine(a.acc, decodeAgg(m.W0, m.W1))
			a.childUps++
		case kindDown:
			a.answer = m.Bool0()
			a.haveAnswer = true
		}
	}

	if len(tokenSenders) > 0 {
		if a.dist == -1 {
			// First contact: adopt the wave, pick the smallest sender as
			// parent, reply to every sender, and extend the wave to all
			// remaining neighbours.
			a.dist = tokenDist
			a.parent = tokenSenders[0]
			for _, s := range tokenSenders {
				if s < a.parent {
					a.parent = s
				}
			}
			sender := make(map[int]struct{}, len(tokenSenders))
			for _, s := range tokenSenders {
				sender[s] = struct{}{}
				out = congest.AppendWordMessage(out, s, kindChild, congest.WordFromBool(s == a.parent), 0, childBits)
			}
			a.pending = make(map[int]struct{})
			for i := range ctx.Degree() {
				v := ctx.NeighborAt(i)
				if _, dup := sender[v]; dup {
					continue
				}
				a.pending[v] = struct{}{}
				out = congest.AppendWordMessage(out, v, kindToken, uint64(a.dist+1), 0, tokenBits(a.dist+1))
			}
		} else {
			// Late tokens from same-depth neighbours: decline.
			for _, s := range tokenSenders {
				out = congest.AppendWordMessage(out, s, kindChild, 0, 0, childBits)
			}
		}
	}

	// Convergecast: once the child set is final and every child has
	// reported, push the combined aggregate towards the root.
	if !a.sentUp && a.dist != -1 && len(a.pending) == 0 && a.childUps == len(a.children) {
		a.sentUp = true
		if ctx.ID() == 0 {
			a.answer = a.decide(a.acc)
			a.haveAnswer = true
		} else {
			w0, w1 := encodeAgg(a.acc)
			out = congest.AppendWordMessage(out, a.parent, kindUp, w0, w1, upBits(a.acc))
		}
	}

	// Broadcast: forward the verdict down the tree and terminate.
	if a.haveAnswer && !a.answered {
		a.answered = true
		for _, c := range a.children {
			out = congest.AppendWordMessage(out, c, kindDown, congest.WordFromBool(a.answer), 0, downBits)
		}
	}

	return out, a.answered
}

// runAggregate executes one aggregation stage on the runner: every node
// contributes local(v), the root evaluates decide over the combined
// aggregate, and the verdict every node agreed on is returned, read from
// the root's slot of the node slab. It costs O(D) rounds and O(log n) bits
// per message.
func runAggregate(r engine.Runner, local func(v int) agg, decide func(agg) bool) (bool, error) {
	n := r.Size()
	inputs := make(map[int]any, n)
	for v := 0; v < n; v++ {
		inputs[v] = aggInput{Local: local(v)}
	}
	nodes := make([]aggNode, n)
	factory := func(ctx *congest.Context) congest.Node {
		a := &nodes[ctx.ID()]
		a.decide = decide
		return a
	}
	if _, err := r.RunStage(factory, inputs, 0); err != nil {
		return false, err
	}
	return nodes[0].answer, nil
}
