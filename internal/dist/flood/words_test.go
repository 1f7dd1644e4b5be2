package flood

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

// The word-encoding pin. A fixture's flood runs through Run, so the factory
// that starts the source at distance 0 is pinned with the program, and
// hashes to one digest at Workers 0, 1 and 4: its trace, its Result's
// fields, and every node's dist, read from the node programs the factory
// built, which is where Run reads the distances. Any change to the
// program's rounds, bits, distances or traffic shows here.

// digestRunner is the engine.Runner the pin floods on: a Local over a fresh
// network at one worker count that keeps the node programs the factory
// built and hashes the stage's trace, one (round, From, To, Bits, Quantum)
// line per message.
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

// traceDigest floods from node 0 on a fresh network and returns the Result
// and the SHA-256 of the trace, of the Result's fields, named one by one,
// and of every node's dist.
func traceDigest(t *testing.T, topo congest.Topology, bandwidth int, seed int64, workers int) (*congest.Result, string) {
	t.Helper()
	l, err := engine.NewLocal(topo, bandwidth, seed)
	if err != nil {
		t.Fatal(err)
	}
	l.SetWorkers(workers)
	d := &digestRunner{Local: l}
	if _, err := Run(d, 0); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	res := d.res
	fmt.Fprintf(d.h, "rounds %d, terminated %v, messages %d, bits %d, qubits %d, per round %v, max edge bits %d\n",
		res.Rounds, res.Terminated, res.TotalMessages, res.TotalBits, res.QuantumBits, res.PerRound, res.MaxEdgeBitsPerRound)
	for v, nd := range d.nodes {
		fmt.Fprintln(d.h, v, nd.(*node).dist)
	}
	return res, hex.EncodeToString(d.h.Sum(nil))
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
			res, got := traceDigest(t, c.topo, 64, 11, workers)
			if got != c.digest {
				t.Errorf("%s workers=%d: digest %s, want %s (rounds %d, messages %d, bits %d)",
					c.name, workers, got, c.digest, res.Rounds, res.TotalMessages, res.TotalBits)
			}
		}
	}
}
