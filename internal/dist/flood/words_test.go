package flood

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"qdc/internal/congest"
	"qdc/internal/graph"
)

// The word-encoding pin. A fixture's run hashes to one digest at Workers 0,
// 1 and 4: its trace, its Result with Outputs cleared, and every node's
// dist, read from the slab the factory handed the nodes out of, which is
// where Run reads the distances. The program sets no output, so Outputs is
// left out; the form of the program that also boxed each distance into
// Outputs gives the same digests. Any change to the program's rounds, bits,
// distances or traffic shows here.

// traceDigest runs the flood program on a fresh network, its node programs
// carved from one slab, and returns the Result and the SHA-256 of the
// trace, one (round, From, To, Bits, Quantum) line per message, of the
// Result with Outputs cleared, and of every node's dist in the slab.
func traceDigest(t *testing.T, topo congest.Topology, bandwidth int, seed int64, opts congest.Options) (*congest.Result, string) {
	t.Helper()
	nw, err := congest.NewNetwork(topo, bandwidth)
	if err != nil {
		t.Fatal(err)
	}
	nw.SetSeed(seed)
	h := sha256.New()
	opts.Trace = func(round int, m congest.Message) { fmt.Fprintln(h, round, m.From, m.To, m.Bits, m.Quantum) }
	nodes := make([]node, topo.N())
	res, err := nw.Run(func(ctx *congest.Context) congest.Node { return &nodes[ctx.ID()] }, opts)
	if err != nil {
		t.Fatalf("workers=%d: %v", opts.Workers, err)
	}
	dists := make([]int, len(nodes))
	for v := range nodes {
		dists[v] = nodes[v].dist
	}
	cleared := *res
	cleared.Outputs = nil
	fmt.Fprintf(h, "%#v\n%v\n", cleared, dists)
	return res, hex.EncodeToString(h.Sum(nil))
}

func TestWordEncodingMatchesBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		name   string
		topo   congest.Topology
		digest string
	}{
		{"grid", graph.Grid(8, 9), "dd438547311b2969d15281737c5d91dd0fad3bc0d5264e73b4cf4c2cf77a7de2"},
		{"random", graph.RandomConnectedGraph(60, 0.08, rng), "e3524d092489803c88a4ae89aa9da10599bb135bd2f2689691201f385a169763"},
	} {
		for _, workers := range []int{0, 1, 4} {
			opts := congest.Options{MaxRounds: c.topo.N() + 2, Inputs: map[int]any{0: true}, Workers: workers}
			res, got := traceDigest(t, c.topo, 64, 11, opts)
			if got != c.digest {
				t.Errorf("%s workers=%d: digest %s, want %s (rounds %d, messages %d, bits %d)",
					c.name, workers, got, c.digest, res.Rounds, res.TotalMessages, res.TotalBits)
			}
		}
	}
}
