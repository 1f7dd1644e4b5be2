package verify

import (
	"fmt"

	"qdc/internal/congest"
	"qdc/internal/dist/engine"
	"qdc/internal/graph"
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

// aggNode implements the O(D)-round global aggregation: a BFS tree is grown
// from node 0 with explicit child detection, the aggregates are combined
// bottom-up along the tree, the root evaluates the decision predicate, and
// the one-bit verdict is broadcast back down. Every message is O(log n)
// bits, so the whole stage fits the CONGEST budget and — crucially for the
// degree-two check of Theorem 3.5 — finishes in O(D) rounds. A node's
// state is fixed-size but for its child flags, which runAggregate carves
// from one slab for the stage, so the stage allocates nothing per node.
//
// Apart from the root's tokens in round 1, a node acts only on what its
// inbox brings, and it acts in the step that brings it, so a step with an
// empty inbox would send nothing. Every node therefore votes done after
// every step and sleeps between messages, ahead of the wave too. Some
// message stays in flight until the verdict reaches the last leaf, so the
// stage ends in the round the last leaf learns it, every node answered,
// and runAggregate reads the root's answer from the node slab. On a runner
// whose topology node 0 does not span, the stage ends once node 0's
// component has its verdict, and runAggregate names the lowest node the
// wave never reached instead of returning a verdict over part of the
// network.
type aggNode struct {
	decide func(agg) bool

	acc    agg
	dist   int
	parent int
	// pending counts the node's tokens still unanswered: every token gets
	// exactly one kindChild reply, from the node that received it.
	pending int
	// isChild flags, by neighbour rank, the neighbours that answered the
	// node's token as its children; children counts them.
	isChild    []bool
	children   int
	childUps   int
	sentUp     bool
	answer     bool
	haveAnswer bool
	answered   bool
}

func (a *aggNode) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	out := ctx.Outbox()

	// The root starts the BFS wave in round 1.
	if round == 1 && ctx.ID() == 0 {
		a.pending = ctx.Degree()
		for i := range ctx.Degree() {
			out = congest.AppendWordMessage(out, ctx.NeighborAt(i), kindToken, 1, 0, tokenBits(1))
		}
	}

	// The inbox ascends by sender, as the neighbours do by rank, so one
	// cursor over the ranks finds every child's flag.
	adopted, rank := false, 0
	for i := range inbox {
		m := &inbox[i]
		switch m.Kind {
		case kindToken:
			// First contact adopts the wave from the first token, whose
			// sender is the smallest and becomes the parent. Every token is
			// answered; only the parent's answer says child, and tokens
			// that come later, from same-depth neighbours, are declined.
			if a.dist == -1 {
				a.dist, a.parent, adopted = m.Int0(), m.From, true
			}
			child := adopted && m.From == a.parent
			out = congest.AppendWordMessage(out, m.From, kindChild, congest.WordFromBool(child), 0, childBits)
		case kindChild:
			a.pending--
			if m.Bool0() {
				for ctx.NeighborAt(rank) != m.From {
					rank++
				}
				a.isChild[rank] = true
				a.children++
			}
		case kindUp:
			a.acc = combine(a.acc, decodeAgg(m.W0, m.W1))
			a.childUps++
		case kindDown:
			a.answer = m.Bool0()
			a.haveAnswer = true
		}
	}

	if adopted {
		// Extend the wave to every neighbour that sent no token, walking the
		// ascending token senders against the ascending neighbours.
		k := 0
		for i := range ctx.Degree() {
			v := ctx.NeighborAt(i)
			for k < len(inbox) && (inbox[k].Kind != kindToken || inbox[k].From < v) {
				k++
			}
			if k < len(inbox) && inbox[k].From == v {
				continue
			}
			a.pending++
			out = congest.AppendWordMessage(out, v, kindToken, uint64(a.dist+1), 0, tokenBits(a.dist+1))
		}
	}

	// Convergecast: once the child set is final and every child has
	// reported, push the combined aggregate towards the root.
	if !a.sentUp && a.dist != -1 && a.pending == 0 && a.childUps == a.children {
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
		for i, child := range a.isChild {
			if child {
				out = congest.AppendWordMessage(out, ctx.NeighborAt(i), kindDown, congest.WordFromBool(a.answer), 0, downBits)
			}
		}
	}

	return out, true
}

// runAggregate executes one aggregation stage on the runner: every node
// contributes local(v), the root evaluates decide over the combined
// aggregate, and the verdict every node agreed on is returned, read from
// the root's slot of the node slab. local(v) is node v's input: its
// contribution, computed from its own problem input and the results of its
// earlier stages. Node 0 is the BFS root. It costs O(D) rounds and
// O(log n) bits per message, and allocates two slabs: the node programs and
// their child flags, one per directed edge of g, the graph the runner runs
// on. A node the wave never reached, on a runner whose topology node 0
// does not span, is an error that names the lowest such node.
func runAggregate(r engine.Runner, g *graph.Graph, local func(v int) agg, decide func(agg) bool) (bool, error) {
	nodes := make([]aggNode, r.Size())
	flags := make([]bool, 2*g.M())
	factory := func(ctx *congest.Context) congest.Node {
		v, d := ctx.ID(), ctx.Degree()
		if len(flags) < d {
			// The runner's topology has more edges than g; the BFS runs on
			// the runner's, so its nodes get flags of their own.
			flags = make([]bool, d)
		}
		nodes[v] = aggNode{decide: decide, acc: local(v), dist: -1, parent: -1, isChild: flags[:d:d]}
		flags = flags[d:]
		if v == 0 {
			nodes[v].dist = 0
		}
		return &nodes[v]
	}
	if _, err := r.RunStage(factory, nil, 0); err != nil {
		return false, err
	}
	for v := range nodes {
		if nodes[v].dist < 0 {
			return false, fmt.Errorf("verify: aggregation wave never reached node %d", v)
		}
	}
	return nodes[0].answer, nil
}
