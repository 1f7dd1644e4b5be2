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

// The word-encoding pin. A fixture's full Result and its trace hash to one
// digest at Workers 0, 1 and 4. The digests were recorded while the
// program still ran beside a verbatim replica of its pre-refactor boxed
// form and both produced them, so any change to the program's rounds,
// bits, outputs or traffic shows here.

// traceDigest runs factory on a fresh network and returns its Result and
// the SHA-256 of that Result and of its trace, one (round, From, To, Bits,
// Quantum) line per message.
func traceDigest(t *testing.T, topo congest.Topology, bandwidth int, seed int64, factory congest.NodeFactory, opts congest.Options) (*congest.Result, string) {
	t.Helper()
	nw, err := congest.NewNetwork(topo, bandwidth)
	if err != nil {
		t.Fatal(err)
	}
	nw.SetSeed(seed)
	h := sha256.New()
	opts.Trace = func(round int, m congest.Message) { fmt.Fprintln(h, round, m.From, m.To, m.Bits, m.Quantum) }
	res, err := nw.Run(factory, opts)
	if err != nil {
		t.Fatalf("workers=%d: %v", opts.Workers, err)
	}
	fmt.Fprintf(h, "%#v\n", *res)
	return res, hex.EncodeToString(h.Sum(nil))
}

func TestWordEncodingMatchesBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		name   string
		topo   congest.Topology
		digest string
	}{
		{"grid", graph.Grid(8, 9), "4fc456c71591508831d4acf80f861cb7fc8dd73ecaad022edfc1ca2513804951"},
		{"random", graph.RandomConnectedGraph(60, 0.08, rng), "fedde80c27894cd39d574c6fc6912a1b9c8afdfa3cb89d4ac4749ff6a428ea9d"},
	} {
		for _, workers := range []int{0, 1, 4} {
			opts := congest.Options{MaxRounds: c.topo.N() + 2, Inputs: map[int]any{0: true}, Workers: workers}
			res, got := traceDigest(t, c.topo, 64, 11, func(*congest.Context) congest.Node { return &node{} }, opts)
			if got != c.digest {
				t.Errorf("%s workers=%d: digest %s, want %s (rounds %d, messages %d, bits %d)",
					c.name, workers, got, c.digest, res.Rounds, res.TotalMessages, res.TotalBits)
			}
		}
	}
}
