package disjointness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"qdc/internal/congest"
	"qdc/internal/dist/engine"
	"qdc/internal/graph"
)

// The word-encoding pin, across bandwidths that carry single-bit chunks
// (B=1), one word-packed chunk a round (B=32, B=128) and a chunk split over
// two messages (B=200). Each case runs through RunOn, so the slab that
// hands the endpoints their sets is pinned with the program. A case's
// Result, every node's verdict and its trace hash to one digest at Workers
// 0, 1 and 4. Every case but B=200 was
// run while the program still ran beside a verbatim replica of its
// pre-refactor boxed form, which gave the same Result, verdicts and trace.
// At B=200 that form sent each round's chunk as one boxed message; its
// split into word messages keeps the boxed run's rounds, bits, verdicts and
// full 200-bit edge rounds, held here, and sends 32 messages where it sent
// 24.

// digestRunner is the engine.Runner the pin runs the protocol on: a Local
// over a fresh path network at one worker count that keeps the node
// programs the factory built and hashes the stage's trace, one (round,
// From, To, Bits, Quantum) line per message.
type digestRunner struct {
	*engine.Local
	h     hash.Hash
	nodes []congest.Node
	res   *congest.Result
}

// RunStage runs the stage on the Local, recording the node program the
// factory builds for every node and the stage's trace.
func (d *digestRunner) RunStage(factory congest.NodeFactory, inputs map[int]any, maxRounds int) (*congest.Result, error) {
	d.h, d.nodes = sha256.New(), make([]congest.Node, d.Size())
	record := func(ctx *congest.Context) congest.Node {
		d.nodes[ctx.ID()] = factory(ctx)
		return d.nodes[ctx.ID()]
	}
	var err error
	d.res, err = d.RunTraced(record, inputs, maxRounds, func(round int, m congest.Message) {
		fmt.Fprintln(d.h, round, m.From, m.To, m.Bits, m.Quantum)
	})
	return d.res, err
}

// traceDigest runs the protocol through RunOn on a fresh path of the given
// number of nodes, node 0 holding x and the last node y, and returns the
// Result, the node programs and the SHA-256 of the trace, of the Result's
// fields, named one by one, and of every node's verdict.
func traceDigest(t *testing.T, nodes, bandwidth int, seed int64, workers int, x, y []int) (*congest.Result, []*pathNode, string) {
	t.Helper()
	l, err := engine.NewLocal(graph.Path(nodes), bandwidth, seed)
	if err != nil {
		t.Fatal(err)
	}
	l.SetWorkers(workers)
	d := &digestRunner{Local: l}
	if _, err := RunOn(d, x, y); err != nil {
		t.Fatalf("B=%d workers=%d: %v", bandwidth, workers, err)
	}
	res := d.res
	fmt.Fprintf(d.h, "rounds %d, terminated %v, messages %d, bits %d, qubits %d, per round %v, max edge bits %d\n",
		res.Rounds, res.Terminated, res.TotalMessages, res.TotalBits, res.QuantumBits, res.PerRound, res.MaxEdgeBitsPerRound)
	path := make([]*pathNode, nodes)
	for v, nd := range d.nodes {
		path[v] = nd.(*pathNode)
		fmt.Fprintln(d.h, v, path[v].disjoint)
	}
	return res, path, hex.EncodeToString(d.h.Sum(nil))
}

func TestWordChunksMatchBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const b = 300
	x, y := make([]int, b), make([]int, b)
	for i := 0; i < b; i++ {
		x[i] = rng.Intn(2)
		// Sparse Y keeps the disjoint verdict input-dependent, not constant.
		if rng.Intn(8) == 0 {
			y[i] = 1
		}
	}
	const nodes = 9
	for _, c := range []struct {
		bandwidth, rounds int
		bits              int64
		digest            string
	}{
		{1, 316, 2408, "6dea0a158be3b4157b68d5d7342a789c3268251cf648ded6e6053a52b4c5477c"},
		{32, 26, 2408, "058c46aa17b569d1067cd057b910c5a029ee0a8614a06e51945fd42f4991374b"},
		{128, 19, 2408, "72147839699407f128cbe208ec2aa5594e5337cdb13383fbb2b623f734bc1e86"},
		{200, 18, 2408, "1c85d8e846f5771b7111083260341f27066d619a037512ca2e75fab827eaf067"},
	} {
		for _, workers := range []int{0, 1, 4} {
			res, path, got := traceDigest(t, nodes, c.bandwidth, 13, workers, x, y)
			if got != c.digest {
				t.Errorf("B=%d workers=%d: digest %s, want %s (rounds %d, messages %d, bits %d)",
					c.bandwidth, workers, got, c.digest, res.Rounds, res.TotalMessages, res.TotalBits)
			}
			if res.Rounds != c.rounds || res.TotalBits != c.bits || res.MaxEdgeBitsPerRound != c.bandwidth {
				t.Errorf("B=%d workers=%d: %d rounds, %d bits, at most %d on an edge in a round; want %d, %d, %d",
					c.bandwidth, workers, res.Rounds, res.TotalBits, res.MaxEdgeBitsPerRound, c.rounds, c.bits, c.bandwidth)
			}
			for v := range path {
				if !path[v].answered || path[v].disjoint {
					t.Errorf("B=%d workers=%d: node %d answered %v, disjoint %v; want an answer of false",
						c.bandwidth, workers, v, path[v].answered, path[v].disjoint)
				}
			}
		}
	}
}
