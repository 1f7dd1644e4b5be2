package verify

import (
	"math/rand"
	"reflect"
	"testing"

	"qdc/internal/congest"
	"qdc/internal/graph"
)

// Word-encoding equivalence pins for all three verify stages: the migrated
// node programs must produce Results bit-for-bit identical to the
// pre-refactor boxed implementations — same rounds, bits, outputs and trace
// stream — on sequential and parallel merges alike. The boxed* types below
// are the pre-refactor programs, kept verbatim.

type (
	boxedDistMsg  struct{ D int }
	boxedColorMsg struct{ C int }
	boxedTokenMsg struct{ Dist int }
	boxedChildMsg struct{ IsChild bool }
	boxedUpMsg    struct{ Agg agg }
	boxedDownMsg  struct{ Answer bool }
)

type boxedLabelNode struct {
	mNbrs    []int
	label    int
	lastSent int
}

func (l *boxedLabelNode) Init(ctx *congest.Context) {
	in, _ := ctx.Input().(labelInput)
	l.mNbrs = in.MNbrs
	l.label = ctx.ID()
	l.lastSent = -1
}

func (l *boxedLabelNode) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	for _, m := range inbox {
		if v, ok := m.Payload.(int); ok && v < l.label {
			l.label = v
		}
	}
	n := ctx.N()
	if round > n {
		ctx.SetOutput(l.label)
		return nil, true
	}
	if l.label != l.lastSent {
		l.lastSent = l.label
		bits := tagBits + congest.BitsForID(n)
		return congest.Broadcast(l.mNbrs, l.label, bits), false
	}
	return nil, false
}

type boxedColorNode struct {
	mNbrs    []int
	dist     int
	lastSent int
	conflict bool
}

func (c *boxedColorNode) Init(ctx *congest.Context) {
	in, _ := ctx.Input().(colorInput)
	c.mNbrs = in.MNbrs
	c.dist = -1
	c.lastSent = -1
	if in.IsLeader {
		c.dist = 0
	}
}

func (c *boxedColorNode) color() int {
	if c.dist < 0 {
		return 0
	}
	return c.dist % 2
}

func (c *boxedColorNode) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	n := ctx.N()
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case boxedDistMsg:
			if cand := p.D + 1; c.dist == -1 || cand < c.dist {
				c.dist = cand
			}
		case boxedColorMsg:
			if p.C == c.color() {
				c.conflict = true
			}
		}
	}
	switch {
	case round <= n:
		if c.dist != -1 && c.dist != c.lastSent {
			c.lastSent = c.dist
			bits := tagBits + congest.BitsForInt(c.dist)
			return congest.Broadcast(c.mNbrs, boxedDistMsg{D: c.dist}, bits), false
		}
		return nil, false
	case round == n+1:
		bits := tagBits + congest.BitsForBool
		return congest.Broadcast(c.mNbrs, boxedColorMsg{C: c.color()}, bits), false
	default:
		ctx.SetOutput(c.conflict)
		return nil, true
	}
}

type boxedAggNode struct {
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

func newBoxedAggNode(ctx *congest.Context, decide func(agg) bool) *boxedAggNode {
	in, _ := ctx.Input().(aggInput)
	return &boxedAggNode{decide: decide, acc: in.Local, dist: -1, parent: -1}
}

func (a *boxedAggNode) Init(ctx *congest.Context) {
	if ctx.ID() == 0 {
		a.dist = 0
	}
}

func (a *boxedAggNode) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	var out []congest.Message

	if round == 1 && ctx.ID() == 0 {
		a.pending = make(map[int]struct{})
		for i := range ctx.Degree() {
			v := ctx.NeighborAt(i)
			a.pending[v] = struct{}{}
			out = append(out, congest.NewMessage(v, boxedTokenMsg{Dist: 1}, tokenBits(1)))
		}
	}

	var tokenSenders []int
	tokenDist := -1
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case boxedTokenMsg:
			tokenSenders = append(tokenSenders, m.From)
			tokenDist = p.Dist
		case boxedChildMsg:
			delete(a.pending, m.From)
			if p.IsChild {
				a.children = append(a.children, m.From)
			}
		case boxedUpMsg:
			a.acc = combine(a.acc, p.Agg)
			a.childUps++
		case boxedDownMsg:
			a.answer = p.Answer
			a.haveAnswer = true
		}
	}

	if len(tokenSenders) > 0 {
		if a.dist == -1 {
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
				out = append(out, congest.NewMessage(s, boxedChildMsg{IsChild: s == a.parent}, childBits))
			}
			a.pending = make(map[int]struct{})
			for i := range ctx.Degree() {
				v := ctx.NeighborAt(i)
				if _, dup := sender[v]; dup {
					continue
				}
				a.pending[v] = struct{}{}
				out = append(out, congest.NewMessage(v, boxedTokenMsg{Dist: a.dist + 1}, tokenBits(a.dist+1)))
			}
		} else {
			for _, s := range tokenSenders {
				out = append(out, congest.NewMessage(s, boxedChildMsg{IsChild: false}, childBits))
			}
		}
	}

	if !a.sentUp && a.dist != -1 && len(a.pending) == 0 && a.childUps == len(a.children) {
		a.sentUp = true
		if ctx.ID() == 0 {
			a.answer = a.decide(a.acc)
			a.haveAnswer = true
		} else {
			out = append(out, congest.NewMessage(a.parent, boxedUpMsg{Agg: a.acc}, upBits(a.acc)))
		}
	}

	if a.haveAnswer && !a.answered {
		a.answered = true
		for _, c := range a.children {
			out = append(out, congest.NewMessage(c, boxedDownMsg{Answer: a.answer}, downBits))
		}
		ctx.SetOutput(a.answer)
	}

	return out, a.answered
}

// traceEv is the accounting-visible view of one traced message. The payload
// representation intentionally differs between the two programs, so Kind,
// the words and Payload are excluded from the comparison.
type traceEv struct {
	Round, From, To, Bits int
	Quantum               bool
}

func runStageTraced(t *testing.T, topo congest.Topology, inputs map[int]any, factory congest.NodeFactory, workers, maxRounds int) (*congest.Result, []traceEv) {
	t.Helper()
	nw, err := congest.NewNetwork(topo, 64)
	if err != nil {
		t.Fatal(err)
	}
	nw.SetSeed(5)
	for v, in := range inputs {
		nw.SetInput(v, in)
	}
	var evs []traceEv
	res, err := nw.Run(factory, congest.Options{
		MaxRounds: maxRounds,
		Workers:   workers,
		Trace: func(round int, m congest.Message) {
			evs = append(evs, traceEv{round, m.From, m.To, m.Bits, m.Quantum})
		},
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return res, evs
}

// stageFixture builds a graph plus a subnetwork M with several components,
// one of them an odd cycle, so the label flood, the parity colouring and the
// conflict exchange all carry non-trivial traffic.
func stageFixture(t *testing.T) (*graph.Graph, [][]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	g := graph.RandomConnectedGraph(26, 0.12, rng)
	m := graph.NewEdgeSet()
	edges := g.Edges()
	for i, e := range edges {
		if i%2 == 0 {
			m.Add(e.U, e.V)
		}
	}
	return g, mAdjacency(g, m)
}

func comparePrograms(t *testing.T, name string, topo congest.Topology, inputs map[int]any, word, boxed congest.NodeFactory, maxRounds int) {
	t.Helper()
	for _, workers := range []int{0, 1, 4} {
		wordRes, wordEvs := runStageTraced(t, topo, inputs, word, workers, maxRounds)
		boxedRes, boxedEvs := runStageTraced(t, topo, inputs, boxed, workers, maxRounds)
		if !reflect.DeepEqual(wordRes, boxedRes) {
			t.Errorf("%s workers=%d: results differ\n word:  %+v\n boxed: %+v", name, workers, wordRes, boxedRes)
		}
		if !reflect.DeepEqual(wordEvs, boxedEvs) {
			t.Errorf("%s workers=%d: trace streams differ (%d vs %d events)", name, workers, len(wordEvs), len(boxedEvs))
		}
	}
}

func TestLabelStageMatchesBoxed(t *testing.T) {
	g, mAdj := stageFixture(t)
	inputs := make(map[int]any, g.N())
	for v := range mAdj {
		inputs[v] = labelInput{MNbrs: mAdj[v]}
	}
	comparePrograms(t, "labels", g, inputs,
		func(*congest.Context) congest.Node { return &labelNode{} },
		func(*congest.Context) congest.Node { return &boxedLabelNode{} },
		g.N()+8)
}

func TestColorStageMatchesBoxed(t *testing.T) {
	g, mAdj := stageFixture(t)
	// Leaders from a boxed label run; both colour programs get the same inputs.
	labelInputs := make(map[int]any, g.N())
	for v := range mAdj {
		labelInputs[v] = labelInput{MNbrs: mAdj[v]}
	}
	res, _ := runStageTraced(t, g, labelInputs, func(*congest.Context) congest.Node { return &boxedLabelNode{} }, 0, g.N()+8)
	inputs := make(map[int]any, g.N())
	for v := range mAdj {
		inputs[v] = colorInput{MNbrs: mAdj[v], IsLeader: res.Outputs[v].(int) == v}
	}
	comparePrograms(t, "colors", g, inputs,
		func(*congest.Context) congest.Node { return &colorNode{} },
		func(*congest.Context) congest.Node { return &boxedColorNode{} },
		g.N()+8)
}

func TestAggregateStageMatchesBoxed(t *testing.T) {
	g, mAdj := stageFixture(t)
	inputs := make(map[int]any, g.N())
	for v := range mAdj {
		deg := len(mAdj[v])
		inputs[v] = aggInput{Local: agg{
			OK:        deg <= 2,
			Supported: boolToInt(deg > 0),
			Leaders:   boolToInt(v%5 == 0 && deg > 0),
			Degree:    deg,
		}}
	}
	decide := func(a agg) bool { return a.OK && a.Leaders == 1 }
	comparePrograms(t, "aggregate", g, inputs,
		func(ctx *congest.Context) congest.Node { return newAggNode(ctx, decide) },
		func(ctx *congest.Context) congest.Node { return newBoxedAggNode(ctx, decide) },
		0)
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
