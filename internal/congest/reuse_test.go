package congest

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"qdc/internal/graph"
)

// reuseNode is the clean program of the reuse tests. For three rounds every
// node sends B bits to each neighbour, so a bit a previous run left charged
// on any edge slot overruns the budget. Its digest folds its input, a draw
// from its random stream per round and every inbox, in order, so a stale
// input, seed or inbox shows in the digests.
type reuseNode struct {
	digest uint64
	out    []Message
}

func (r *reuseNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	for i := range inbox {
		r.digest = mix64(r.digest ^ uint64(inbox[i].From)<<40 ^ inbox[i].W0)
	}
	if round > 3 {
		return nil, true
	}
	r.digest = mix64(r.digest ^ uint64(ctx.Rand().Int63()))
	r.out = BroadcastAllWordsInto(r.out[:0], ctx, 1, r.digest, 0, ctx.Bandwidth())
	return r.out, false
}

// reuseProgram carves reuseNodes from a slab, node v's digest starting
// from its ID and its input inputs[v].
func reuseProgram(inputs map[int]int) program {
	return slabOf(func(ctx *Context) reuseNode {
		return reuseNode{digest: uint64(ctx.ID()) ^ uint64(inputs[ctx.ID()])<<32}
	})
}

// reuseInputs are the inputs of the reuse tests' runs, on two nodes.
var reuseInputs = map[int]int{2: 20, 50: 500}

// newReuseNetwork is the network of the reuse tests: a 64-node cycle at
// B = 16 with seed 3, retuned by each of tunes in order.
func newReuseNetwork(t *testing.T, tunes []func(*Network)) *Network {
	t.Helper()
	g, err := graph.Cycle(64)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	nw.SetSeed(3)
	for _, tune := range tunes {
		tune(nw)
	}
	return nw
}

// TestReusedNetworkMatchesFresh runs every kind of exit on one network,
// each followed by a clean run, and holds every clean run's Result, node
// digests and trace stream to the same run on a fresh network. Each exit leaves
// something a reused state must not carry into the next run: a node panic
// leaves the edge slots of the ranges that validated charged, a round-limit
// exit and a cancel leave messages in the inboxes, a validation error
// leaves the first range's direct deliveries there, and a SetSeed between
// runs changes every node's random stream while the next clean run's
// factory builds its nodes with a changed input.
// Two goroutines calling Run on one network at once must each match a
// fresh network too; run it under -race.
func TestReusedNetworkMatchesFresh(t *testing.T) {
	forcePool(t)
	exits := []struct {
		name      string
		prog      program
		maxRounds int
		cancelAt  int    // the round before which Cancel stops the run; 0 for none
		want      string // the exit's error or panic text
		tune      func(*Network)
		inputs    map[int]int // the clean runs' inputs from this exit on; nil keeps them
	}{
		{name: "panic", prog: slabOf(func(ctx *Context) fuseNode { return fuseNode{trigger: ctx.ID() == 4} }),
			want: "congest: node 4 panicked in round 2: short circuit"},
		{name: "round limit", prog: reuseProgram(reuseInputs), maxRounds: 2,
			want: "congest: round limit reached before termination: after 2 rounds"},
		{name: "validation error", prog: slabOf(newRogue(false)),
			want: "congest: message to non-neighbour: node 7 -> 39 in round 3"},
		{name: "cancel", prog: reuseProgram(reuseInputs), cancelAt: 3,
			want: "congest: run cancelled: before round 3"},
		{name: "SetSeed", prog: reuseProgram(reuseInputs),
			tune: func(nw *Network) { nw.SetSeed(11) }, inputs: map[int]int{2: 21, 50: 500}},
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var tunes []func(*Network)
			nw := newReuseNetwork(t, nil)
			clean, cleanProg := Options{PerRound: true}, reuseProgram(reuseInputs)
			for _, exit := range exits {
				opts := Options{MaxRounds: exit.maxRounds}
				if exit.cancelAt > 0 {
					polls := 0
					opts.Cancel = func() bool { polls++; return polls == exit.cancelAt }
				}
				ended := fuzzRun(nw, exit.prog, opts, workers)
				if got := ended.panic + ended.err; got != exit.want {
					t.Fatalf("%s: run ended with %q, want %q", exit.name, got, exit.want)
				}
				if exit.tune != nil {
					tunes = append(tunes, exit.tune)
					exit.tune(nw)
				}
				if exit.inputs != nil {
					cleanProg = reuseProgram(exit.inputs)
				}
				want := fuzzRun(newReuseNetwork(t, tunes), cleanProg, clean, workers)
				if want.err != "" || want.panic != "" {
					t.Fatalf("after %s: fresh clean run ended with %q%q", exit.name, want.err, want.panic)
				}
				if diff := sameOutcome(fuzzRun(nw, cleanProg, clean, workers), want); diff != "" {
					t.Errorf("after %s: reused network's clean run: %s", exit.name, diff)
				}
			}
		})
	}
	t.Run("concurrent", func(t *testing.T) {
		clean, cleanProg := Options{PerRound: true}, reuseProgram(reuseInputs)
		want := fuzzRun(newReuseNetwork(t, nil), cleanProg, clean, 1)
		nw := newReuseNetwork(t, nil)
		var wg sync.WaitGroup
		for _, workers := range []int{1, 4} {
			wg.Add(1)
			go func(workers int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if diff := sameOutcome(fuzzRun(nw, cleanProg, clean, workers), want); diff != "" {
						t.Errorf("Workers=%d, run %d: %s", workers, i, diff)
						return
					}
				}
			}(workers)
		}
		wg.Wait()
	})
}

// silentNode counts its steps, sends nothing and votes done.
type silentNode struct{ steps int }

func (s *silentNode) Round(*Context, int, []Message) ([]Message, bool) {
	s.steps++
	return nil, true
}

// TestReusedRunAllocsIndependentOfN pins what a run costs to set up, on a
// fresh network and on one that has run before, over a 64-node cycle and a
// 4096-node one handed over as a *graph.Graph and as its CSR. A fresh
// network copies a Graph by rank into flat arrays and reads a CSR's own,
// so NewNetwork and its first run allocate the same count whatever n. A network that has run
// before only resets its kept state, so with node programs carved from a
// slab a run allocates a fixed handful of objects (the Result and, with
// workers, the pool), and no more than 1 KiB more on the larger cycle: a
// Result holds no per-node field.
func TestReusedRunAllocsIndependentOfN(t *testing.T) {
	for _, tc := range []struct {
		workers int
		most    float64
	}{{1, 8}, {4, 40}} {
		for _, asCSR := range []bool{false, true} {
			var fresh, reused, reusedBytes []float64
			for _, n := range []int{64, 4096} {
				f, r, b := runSetupAllocs(t, n, asCSR, tc.workers)
				fresh, reused, reusedBytes = append(fresh, f), append(reused, r), append(reusedBytes, b)
			}
			if fresh[0] != fresh[1] {
				t.Errorf("Workers=%d, CSR %v: a fresh network and its first run allocate %.0f objects on Cycle(64) and %.0f on Cycle(4096); want the same count",
					tc.workers, asCSR, fresh[0], fresh[1])
			}
			if reused[0] != reused[1] || reused[1] > tc.most {
				t.Errorf("Workers=%d, CSR %v: a reused run allocates %.0f objects on Cycle(64) and %.0f on Cycle(4096); want the same count, at most %.0f",
					tc.workers, asCSR, reused[0], reused[1], tc.most)
			}
			if reusedBytes[1] > reusedBytes[0]+1024 {
				t.Errorf("Workers=%d, CSR %v: a reused run allocates %.0f bytes on Cycle(64) and %.0f on Cycle(4096); want at most 1 KiB more",
					tc.workers, asCSR, reusedBytes[0], reusedBytes[1])
			}
		}
	}
}

// runSetupAllocs returns what a silent slab program's run allocates on
// Cycle(n), given as its CSR when asCSR is set: fresh counts the objects of
// NewNetwork and the network's first run, reused the objects of a run on a
// network that has run before, and reusedBytes the bytes of such a run,
// read from runtime.MemStats.TotalAlloc over a batch of runs at
// GOMAXPROCS 1, as testing.AllocsPerRun counts objects.
func runSetupAllocs(t *testing.T, n int, asCSR bool, workers int) (fresh, reused, reusedBytes float64) {
	g, err := graph.Cycle(n)
	if err != nil {
		t.Fatal(err)
	}
	var topo Topology = g
	if asCSR {
		topo = graph.FromGraph(g)
	}
	slab := make([]silentNode, n)
	factory := func(ctx *Context) Node { return &slab[ctx.ID()] }
	opts := Options{Workers: workers}
	var nw *Network
	run := func() {
		if _, err := nw.Run(factory, opts); err != nil {
			t.Fatal(err)
		}
	}
	fresh = testing.AllocsPerRun(20, func() {
		if nw, err = NewNetwork(topo, 16); err != nil {
			t.Fatal(err)
		}
		run()
	})
	// nw has run, so every measured run reuses its state.
	reused = testing.AllocsPerRun(20, run)
	const batch = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range batch {
		run()
	}
	runtime.ReadMemStats(&after)
	return fresh, reused, float64(after.TotalAlloc-before.TotalAlloc) / batch
}

// TestParkedStateDropsNodeState checks that an idle network keeps no node
// program of its last run reachable and no worker's random sources (every
// reuseNode draws from one), and that every worker keeps its send log's
// room for the next run. The messages left in a send log reach nothing:
// TestMessageIs48BytesWithoutPointers holds Message pointer-free.
func TestParkedStateDropsNodeState(t *testing.T) {
	forcePool(t)
	for _, workers := range []int{1, 4} {
		nw := newReuseNetwork(t, nil)
		factory, _ := reuseProgram(reuseInputs)(nw.Size())
		if _, err := nw.Run(factory, Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		st := nw.parked.Load()
		if st == nil {
			t.Fatal("a finished run parked no state")
		}
		for v := range st.nodes {
			if st.nodes[v] != nil {
				t.Fatalf("Workers=%d: parked state keeps node %d's program %v", workers, v, st.nodes[v])
			}
		}
		for w := range st.workers {
			if st.workers[w].rngs != nil {
				t.Fatalf("Workers=%d: parked state keeps worker %d's random sources", workers, w)
			}
			if cap(st.workers[w].sent) == 0 {
				t.Fatalf("Workers=%d: worker %d's send log has no room after a run that sent", workers, w)
			}
		}
	}
}

// holderNode holds the input its factory built it with and votes done.
type holderNode struct{ in *[64]byte }

func (*holderNode) Round(*Context, int, []Message) ([]Message, bool) { return nil, true }

// TestParkedStateDropsInputs checks that an idle network keeps none of its
// last run's inputs reachable: a node program holds the input its factory
// built it with, and parking drops every node program, so once the caller
// drops its slab nothing keeps the input.
func TestParkedStateDropsInputs(t *testing.T) {
	forcePool(t)
	for _, workers := range []int{1, 4} {
		nw := newReuseNetwork(t, nil)
		// The slab, its factory and the input live in this call alone, so
		// once it returns only the network could keep them reachable.
		weakIn := func() weak.Pointer[[64]byte] {
			in := new([64]byte)
			nodes, factory := slab(nw.Size(), func(ctx *Context) holderNode {
				if ctx.ID() == 3 {
					return holderNode{in: in}
				}
				return holderNode{}
			})
			if _, err := nw.Run(factory, Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			if nodes[3].in != in {
				t.Fatalf("Workers=%d: node 3 does not hold the pointer it was built with", workers)
			}
			return weak.Make(in)
		}()
		runtime.GC()
		if weakIn.Value() != nil {
			t.Fatalf("Workers=%d: an idle network keeps its last run's node programs, and their inputs, reachable", workers)
		}
		runtime.KeepAlive(nw)
	}
}

// hopNode floods a BFS wave from node 0 and keeps its hop count: it joins
// when its first message arrives, in the round after its hop count,
// broadcasts it once and is done.
type hopNode struct {
	hops int
	sent bool
}

func newHop(ctx *Context) hopNode { return hopNode{hops: -min(ctx.ID(), 1)} }

func (h *hopNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	if h.hops < 0 && len(inbox) > 0 {
		h.hops = round - 1
	}
	if h.hops < 0 || h.sent {
		return nil, true
	}
	h.sent = true
	return BroadcastAllWordsInto(ctx.Outbox(), ctx, 0, uint64(h.hops), 0, 16), false
}

// TestLentTableStaysUnwritten: a run reads a graph.CSR's neighbour table
// in place, so every run over the CSR shares it and none may write it. Two
// networks over one 64x64 grid CSR flood it concurrently, at Workers 1 and
// 4 with every round on the pool, then flood again on their parked state.
// The CSR's offsets and targets must equal the copies taken before the
// runs, the parked state must hold the CSR's own targets, and every run's
// Result and hop counts must equal those of a run over the graph.Graph the
// CSR was converted from, which the run copies. The race detector sees
// both networks' workers read the one table.
func TestLentTableStaysUnwritten(t *testing.T) {
	forcePool(t)
	g := graph.Grid(64, 64)
	csr := graph.FromGraph(g)
	offsets, targets := csr.Adjacency()
	offsetsBefore, targetsBefore := slices.Clone(offsets), slices.Clone(targets)

	run := func(nw *Network, workers int) (*Result, []hopNode) {
		nodes, factory := slab(g.N(), newHop)
		res, err := nw.Run(factory, Options{Workers: workers})
		if err != nil {
			t.Error(err)
		}
		return res, nodes
	}
	ref, err := NewNetwork(g, 32)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, wantHops := run(ref, 1)
	if wantHops[len(wantHops)-1].hops != 126 {
		t.Fatalf("the far corner is %d hops from node 0, want 126", wantHops[len(wantHops)-1].hops)
	}

	workers := []int{1, 4}
	nws := make([]*Network, len(workers))
	for i := range nws {
		if nws[i], err = NewNetwork(csr, 32); err != nil {
			t.Fatal(err)
		}
	}
	for pass := range 2 {
		var wg sync.WaitGroup
		for i, nw := range nws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, hops := run(nw, workers[i])
				if !reflect.DeepEqual(res, wantRes) || !slices.Equal(hops, wantHops) {
					t.Errorf("pass %d, Workers=%d: the CSR run's Result %+v or hop counts differ from the Graph run's %+v",
						pass, workers[i], res, wantRes)
				}
			}()
		}
		wg.Wait()
		for i, nw := range nws {
			if st := nw.parked.Load(); st == nil || &st.nbrs[0] != &targets[0] || &st.offsets[0] != &offsets[0] {
				t.Errorf("pass %d, Workers=%d: the parked state does not hold the CSR's own tables", pass, workers[i])
			}
		}
	}
	if !slices.Equal(offsets, offsetsBefore) || !slices.Equal(targets, targetsBefore) {
		t.Error("a run wrote the neighbour table the CSR lent it")
	}
}
