// Package flood implements the BFS flooding primitive: a designated source
// announces itself, every node adopts the hop distance at which the
// announcement first reaches it, and the wave dies out after ecc(source)+O(1)
// rounds. Flooding is the minimal all-touch workload of the CONGEST model —
// every edge carries O(1) messages of O(log n) bits and the round count is
// exactly the distance metric — which makes it the scale workload of the
// experiment harness: it exercises the simulator's per-round machinery on
// topologies far larger than the MST and verification sweeps can afford,
// and its output is checked against a sequential BFS in O(n + m) time.
// Nodes ahead of the wave vote to halt (see congest.Node), so a round steps
// only the nodes at the wave front and a whole flood costs O(n + m) Round
// calls and messages rather than n calls per round.
package flood

import (
	"errors"
	"fmt"

	"qdc/internal/congest"
	"qdc/internal/dist/engine"
)

// ErrBadSource reports a source vertex outside the network.
var ErrBadSource = errors.New("flood: source out of range")

// Result is the outcome of one flood.
type Result struct {
	// Source is the vertex the wave started from.
	Source int
	// Dist[v] is the hop distance from Source to v. Every node has one: on a
	// disconnected topology Run returns an error instead.
	Dist []int
	// Rounds is the measured CONGEST round count, ecc(Source) + 2.
	Rounds int
	// Stats is the communication accounting of the run.
	Stats engine.Stats
}

// kindDist tags the protocol's only message: W0 is the sender's adopted
// distance, charged distBits. The golden digests in words_test.go hold the
// accounting.
const kindDist uint8 = 1

func distBits(n int) int { return engine.TagBits + congest.BitsForID(n) }

// node is the flooding node program: adopt the first announced distance + 1,
// re-announce once, terminate. A node the wave has not reached yet reports
// done, so it sleeps until the wave's first message wakes it and a round
// steps only the wave. The program sets no output: Run reads dist from the
// node slab once the stage returns, so no distance is boxed into an
// interface, and dist stays -1 at a node the wave never reached.
type node struct {
	source bool
	dist   int
	sent   bool
}

func (f *node) Init(ctx *congest.Context) {
	f.source, _ = ctx.Input().(bool)
	f.dist = -1
	if f.source {
		f.dist = 0
	}
}

func (f *node) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	if f.dist == -1 {
		for i := range inbox {
			if inbox[i].Kind == kindDist {
				f.dist = inbox[i].Int0() + 1
				break
			}
		}
	}
	if f.dist == -1 || f.sent {
		return nil, true
	}
	f.sent = true
	return congest.BroadcastAllWordsInto(ctx.Outbox(), ctx, kindDist, uint64(f.dist), 0, distBits(ctx.N())), false
}

// Run floods from source on the runner's network and returns every node's
// adopted hop distance. The topology must be connected: on a disconnected
// network the run ends once the wave dies out in the source's component,
// and Run reports the lowest node the wave never reached.
func Run(r engine.Runner, source int) (*Result, error) {
	n := r.Size()
	if source < 0 || source >= n {
		return nil, fmt.Errorf("%w: %d with n=%d", ErrBadSource, source, n)
	}
	before := r.Stats()
	nodes := make([]node, n)
	res, err := r.RunStage(func(ctx *congest.Context) congest.Node { return &nodes[ctx.ID()] },
		map[int]any{source: true}, n+2)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Source: source,
		Dist:   make([]int, n),
		Rounds: res.Rounds,
		Stats:  r.Stats().Sub(before),
	}
	for v := range nodes {
		if nodes[v].dist < 0 {
			return nil, fmt.Errorf("flood: node %d produced no distance", v)
		}
		out.Dist[v] = nodes[v].dist
	}
	return out, nil
}
