package disjointness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"qdc/internal/congest"
	"qdc/internal/graph"
)

// The word-encoding pin, across bandwidths that carry single-bit chunks
// (B=1), one word-packed chunk a round (B=32, B=128) and a chunk split over
// two messages (B=200). A case's full Result and its trace hash to one
// digest at Workers 0, 1 and 4. Every digest but B=200's was recorded while
// the program still ran beside a verbatim replica of its pre-refactor boxed
// form and both produced it. At B=200 that form sent each round's chunk as
// one boxed message; its split into word messages keeps the boxed run's
// rounds, bits, outputs and full 200-bit edge rounds, held here, and sends
// 32 messages where it sent 24.

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
		t.Fatalf("B=%d workers=%d: %v", bandwidth, opts.Workers, err)
	}
	fmt.Fprintf(h, "%#v\n", *res)
	return res, hex.EncodeToString(h.Sum(nil))
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
		{1, 316, 2408, "ad6f2ca063ea18331bb07d8711f9636979c8229c5fb3fb82c31675c7fce45995"},
		{32, 26, 2408, "a007f3448e001029fe1316f3ed1ff3eac897c1151d3170ed7f21014ec3efd4e3"},
		{128, 19, 2408, "8f88402772ee09f4eedee5d78bb31dd2d200ad8584b37cc2f488eb250e79aacf"},
		{200, 18, 2408, "0e6920c72a488d746d8f8923c9474ffdc50ea518195cb0c6a590e9e1ca1b0f61"},
	} {
		chunks := (len(x) + c.bandwidth - 1) / c.bandwidth
		for _, workers := range []int{0, 1, 4} {
			opts := congest.Options{
				MaxRounds: chunks + 2*nodes + 16,
				Inputs:    map[int]any{0: pathInput{X: x}, nodes - 1: pathInput{Y: y}},
				Workers:   workers,
			}
			res, got := traceDigest(t, graph.Path(nodes), c.bandwidth, 13, func(*congest.Context) congest.Node { return &pathNode{} }, opts)
			if got != c.digest {
				t.Errorf("B=%d workers=%d: digest %s, want %s (rounds %d, messages %d, bits %d)",
					c.bandwidth, workers, got, c.digest, res.Rounds, res.TotalMessages, res.TotalBits)
			}
			if res.Rounds != c.rounds || res.TotalBits != c.bits || res.MaxEdgeBitsPerRound != c.bandwidth {
				t.Errorf("B=%d workers=%d: %d rounds, %d bits, at most %d on an edge in a round; want %d, %d, %d",
					c.bandwidth, workers, res.Rounds, res.TotalBits, res.MaxEdgeBitsPerRound, c.rounds, c.bits, c.bandwidth)
			}
			for v, out := range res.Outputs {
				if out != false {
					t.Errorf("B=%d workers=%d: node %d outputs %v, want false", c.bandwidth, workers, v, out)
				}
			}
		}
	}
}
