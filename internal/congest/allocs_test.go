package congest

import (
	"runtime"
	"testing"

	"qdc/internal/graph"
)

// measureRunAllocs returns the average heap allocations of one full Run of
// the flood workload for the given round count.
func measureRunAllocs(t *testing.T, topo Topology, workers, rounds int) float64 {
	t.Helper()
	nw, err := NewNetwork(topo, 64)
	if err != nil {
		t.Fatal(err)
	}
	factory := newBenchFlood(topo, rounds)
	opts := Options{MaxRounds: rounds + 2, Workers: workers}
	return testing.AllocsPerRun(5, func() {
		if _, err := nw.Run(factory, opts); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAppendConstructorsAllocFree pins the contract the Into constructors
// advertise: appending into a slice with retained capacity allocates nothing,
// so a node that keeps one outbox across rounds builds its messages entirely
// off the heap.
func TestAppendConstructorsAllocFree(t *testing.T) {
	nw, err := NewNetwork(graph.Star(8), 64)
	if err != nil {
		t.Fatal(err)
	}
	// A context is valid only inside its run, so the hub's factory call
	// measures the constructors.
	allocs := map[string]float64{}
	if _, err := nw.Run(func(hub *Context) Node {
		if hub.ID() == 0 {
			var neighbors []int
			for i := range hub.Degree() {
				neighbors = append(neighbors, hub.NeighborAt(i))
			}
			dst := make([]Message, 0, 64)
			cases := map[string]func(){
				"AppendWordMessage":     func() { dst = AppendWordMessage(dst[:0], 1, 1, 7, 0, 8) },
				"BroadcastWordsInto":    func() { dst = BroadcastWordsInto(dst[:0], neighbors, 1, 7, 0, 8) },
				"BroadcastAllWordsInto": func() { dst = BroadcastAllWordsInto(dst[:0], hub, 1, 7, 0, 8) },
			}
			for name, f := range cases {
				allocs[name] = testing.AllocsPerRun(100, f)
			}
		}
		return &benchFloodNode{rounds: 0}
	}, Options{MaxRounds: 4}); err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 3 {
		t.Fatalf("measured %d constructors, want 3", len(allocs))
	}
	for name, n := range allocs {
		if n != 0 {
			t.Errorf("%s: %.1f allocs per call into retained capacity, want 0", name, n)
		}
	}
}

// TestFreshRunAllocBytesPerNode bounds what a fresh network and its first
// run allocate per node, beyond the bytes per directed edge slot of the
// run's per-slot tables: the node program slots, inbox windows, done votes
// and awake words, about 25 bytes, and nothing per node for its view,
// since each worker steps its range with one context. A run over the
// 320x320 CSR grid reads the CSR's neighbour table in place, so its only
// per-slot table is the 4-byte edge-bit table, and it must stay within 32
// bytes per node beyond 4 per slot; a run that copies the table and its
// offsets takes it past 45. A run over Path(4096), a graph.Graph, copies
// them, so it must stay within 40 bytes per node beyond 8 per slot. Both
// at Workers 1 and 4; a 32-byte context per node takes every case past 57.
// The bytes are read from runtime.MemStats.TotalAlloc over a few fresh
// networks at GOMAXPROCS 1; the slab and the topology are built before the
// count starts.
func TestFreshRunAllocBytesPerNode(t *testing.T) {
	for _, tc := range []struct {
		name          string
		topo          Topology
		perSlot, most float64
	}{
		{"csr-grid320x320", graph.FromGraph(graph.Grid(320, 320)), 4, 32},
		{"path4096", graph.Path(4096), 8, 40},
	} {
		n, slots := tc.topo.N(), 0
		for v := range n {
			slots += tc.topo.Degree(v)
		}
		nodes := make([]silentNode, n)
		factory := func(ctx *Context) Node { return &nodes[ctx.ID()] }
		for _, workers := range []int{1, 4} {
			perNode := (freshRunBytes(t, tc.topo, factory, workers) - tc.perSlot*float64(slots)) / float64(n)
			t.Logf("%s, Workers=%d: %.1f bytes per node beyond %.0f per edge slot (%d nodes, %d slots)",
				tc.name, workers, perNode, tc.perSlot, n, slots)
			if perNode > tc.most {
				t.Errorf("%s, Workers=%d: a fresh run allocates %.1f bytes per node beyond %.0f per edge slot, want at most %.0f",
					tc.name, workers, perNode, tc.perSlot, tc.most)
			}
		}
	}
}

// freshRunBytes returns the bytes NewNetwork over topo and the network's
// first run of factory allocate, averaged over a few networks.
func freshRunBytes(t *testing.T, topo Topology, factory NodeFactory, workers int) float64 {
	const networks = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range networks {
		nw, err := NewNetwork(topo, 16)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nw.Run(factory, Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / networks
}

// TestRoundLoopSteadyStateAllocFree pins the tentpole guarantee: once a
// run's buffers have warmed up (a handful of rounds), extra rounds allocate
// nothing. Two runs of the same workload that differ only in round count
// isolate the steady state — the per-run setup cost cancels in the
// difference, so (allocs(long) - allocs(short)) / extra rounds must be ~0
// at one worker and at four, both with every round inline, as the
// crossover runs this 576-node grid, and with every round on the worker
// pool.
func TestRoundLoopSteadyStateAllocFree(t *testing.T) {
	topo := graph.Grid(24, 24)
	const short, long = 8, 104
	for _, tc := range steadyStateCases {
		t.Run(tc.name, func(t *testing.T) {
			setInlineBelow(t, tc.inlineBelow)
			base := measureRunAllocs(t, topo, tc.workers, short)
			grown := measureRunAllocs(t, topo, tc.workers, long)
			perRound := (grown - base) / float64(long-short)
			if perRound > 0.5 {
				t.Errorf("steady state allocates %.2f objects/round (short run %.0f, long run %.0f); want 0",
					perRound, base, grown)
			}
		})
	}
}

// steadyStateCases are the worker counts the steady-state gates run at:
// one range, and four ranges with every round inline (the crossover's
// choice on their 576-node grid) and with every round on the pool.
var steadyStateCases = []struct {
	name                 string
	workers, inlineBelow int
}{
	{"workers=1", 1, sparseNodes},
	{"workers=4", 4, sparseNodes},
	{"workers=4-pool", 4, 0},
}

// TestRecvArenaFollowsTraffic holds each worker's receive arena to its
// range's traffic rather than its node count: after a BFS wave over the
// 320x320 grid, whose rounds deliver at most about 1,300 of the run's
// 408,320 messages, every worker's arena holds at most twice the most
// messages one round delivered into its range, at Workers 1 and 4. The
// first run partitions the network; the second, with the same traffic,
// counts each round's deliveries per range through the trace.
func TestRecvArenaFollowsTraffic(t *testing.T) {
	topo := graph.Grid(320, 320)
	factory := newBenchWave(topo)
	for _, workers := range []int{1, 4} {
		nw, err := NewNetwork(topo, 64)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Workers: workers}
		if _, err := nw.Run(factory, opts); err != nil {
			t.Fatal(err)
		}
		st := nw.parked.Load()
		count, most := make([]int, workers), make([]int, workers)
		fold := func() {
			for w := range count {
				most[w], count[w] = max(most[w], count[w]), 0
			}
		}
		round := 0
		opts.Trace = func(r int, msg Message) {
			if r != round {
				fold()
				round = r
			}
			count[st.owner(msg.To)]++
		}
		if _, err := nw.Run(factory, opts); err != nil {
			t.Fatal(err)
		}
		fold()
		if nw.parked.Load() != st {
			t.Fatal("the second run did not reuse the first run's state")
		}
		for w := range st.workers {
			room := cap(st.workers[w].recv)
			t.Logf("workers=%d, range %d: arena room %d messages, most delivered in a round %d", workers, w, room, most[w])
			if room > 2*most[w] {
				t.Errorf("workers=%d, range %d: arena holds room for %d messages, want at most 2 x %d", workers, w, room, most[w])
			}
		}
	}
}
