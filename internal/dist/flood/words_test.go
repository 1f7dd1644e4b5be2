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
// 1 and 4: its trace, its Result's fields, and every node's dist, read from
// the slab the factory handed the nodes out of, which is where Run reads
// the distances. Any change to the program's rounds, bits, distances or
// traffic shows here.

// traceDigest runs the flood program on a fresh network, its node programs
// carved from one slab, and returns the Result and the SHA-256 of the
// trace, one (round, From, To, Bits, Quantum) line per message, of the
// Result's fields, named one by one, and of every node's dist in the slab.
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
	fmt.Fprintf(h, "rounds %d, terminated %v, messages %d, bits %d, qubits %d, per round %v, max edge bits %d\n",
		res.Rounds, res.Terminated, res.TotalMessages, res.TotalBits, res.QuantumBits, res.PerRound, res.MaxEdgeBitsPerRound)
	for v := range nodes {
		fmt.Fprintln(h, v, nodes[v].dist)
	}
	return res, hex.EncodeToString(h.Sum(nil))
}

func TestWordEncodingMatchesBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		name   string
		topo   congest.Topology
		digest string
	}{
		{"grid", graph.Grid(8, 9), "a0c574c3ba596c8c59172058b8116676d174d6a3f61e1f3fed89b67980bcfbb1"},
		{"random", graph.RandomConnectedGraph(60, 0.08, rng), "3f7b1546d705b2d7473eb233924c49a3fbe2a2c2fe68140e128fb95ff5a7419f"},
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
