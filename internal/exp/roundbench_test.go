package exp

import (
	"strings"
	"testing"

	"qdc/internal/dist/engine"
)

func TestFloodScenarioRuns(t *testing.T) {
	for _, backend := range []string{BackendLocal, BackendParallel} {
		s := Scenario{
			Name:      "grid36/flood/" + backend + "/B32",
			Topology:  TopologySpec{Family: FamilyGrid, Size: 36},
			Algorithm: AlgFlood,
			Backend:   backend,
			Bandwidth: 32,
			Seed:      7,
		}
		rec := RunScenario(s)
		if rec.Failed() {
			t.Fatalf("%s: %s %s", backend, rec.Error, rec.Detail)
		}
		// A 6x6 grid flooded from a corner: ecc(0) = 10, wave dies out two
		// rounds later.
		if rec.Stats.Rounds != 12 {
			t.Errorf("%s: rounds = %d, want 12", backend, rec.Stats.Rounds)
		}
		if !strings.Contains(rec.Detail, "ecc(0)=10") {
			t.Errorf("%s: detail %q lacks the eccentricity", backend, rec.Detail)
		}
	}
}

func TestFloodCompatibility(t *testing.T) {
	grid := TopologySpec{Family: FamilyGrid, Size: 4096}
	if ok, reason := Compatible(grid, AlgFlood, BackendSimulation, 64); ok {
		t.Error("flood must not run under the simulation backend")
	} else if !strings.Contains(reason, "simulation") {
		t.Errorf("unexpected reason %q", reason)
	}
	// One announcement needs tag + distance bits; B=8 cannot carry it at
	// n=4096 (2 + 12 bits) while B=16 can.
	if ok, _ := Compatible(grid, AlgFlood, BackendLocal, 8); ok {
		t.Error("flood at n=4096 must not fit in 8 bits per round")
	}
	if ok, reason := Compatible(grid, AlgFlood, BackendLocal, 16); !ok {
		t.Errorf("flood at n=4096 should fit in 16 bits per round: %s", reason)
	}
}

func TestScaleXLMatrixExpansion(t *testing.T) {
	m, ok := LookupMatrix("scale-xl")
	if !ok {
		t.Fatal("scale-xl matrix is not registered")
	}
	scenarios := m.Expand()
	// 3 topologies x 1 algorithm x 2 backends x 1 bandwidth, nothing skipped.
	if len(scenarios) != 6 {
		t.Fatalf("scale-xl expands to %d scenarios, want 6", len(scenarios))
	}
	for _, s := range scenarios {
		if s.Algorithm != AlgFlood {
			t.Errorf("scenario %s is not a flood run", s.Name)
		}
		if s.Topology.Size < 100_000 {
			t.Errorf("scenario %s has size %d, scale-xl promises n >= 100k", s.Name, s.Topology.Size)
		}
	}
}

// TestRoundbenchMatrixRuns runs every cell of the registered roundbench
// matrix: each flood passes its BFS check, each local cell costs exactly
// the rounds, messages and bits pinned here, and each parallel cell equals
// its local twin. The live throughput figure is positive on a record with
// wall time and 0 once canonicalisation has zeroed it.
func TestRoundbenchMatrixRuns(t *testing.T) {
	m, ok := LookupMatrix("roundbench")
	if !ok {
		t.Fatal("roundbench matrix is not registered")
	}
	scenarios := m.Expand()
	if len(scenarios) != 6 {
		t.Fatalf("roundbench expands to %d scenarios, want 6", len(scenarios))
	}
	recs := make(map[string]Record, len(scenarios))
	for _, s := range scenarios {
		rec := RunScenario(s)
		if rec.Failed() {
			t.Fatalf("%s: %s %s", s.Name, rec.Error, rec.Detail)
		}
		if nps := NodeRoundsPerSec(rec); nps <= 0 {
			t.Errorf("%s: NodeRoundsPerSec = %g on a live record, want > 0", s.Name, nps)
		}
		rec.WallMillis = 0
		if nps := NodeRoundsPerSec(rec); nps != 0 {
			t.Errorf("%s: NodeRoundsPerSec = %g on a canonicalised record, want 0", s.Name, nps)
		}
		recs[s.Name] = rec
	}
	for topo, want := range map[string]engine.Stats{
		"path1025":   {Stages: 1, Rounds: 1026, Messages: 2048, Bits: 26_624},
		"grid4096":   {Stages: 1, Rounds: 128, Messages: 16_128, Bits: 225_792},
		"grid102400": {Stages: 1, Rounds: 640, Messages: 408_320, Bits: 7_758_080},
	} {
		local := recs[topo+"/flood/local/B64"]
		if local.Stats != want {
			t.Errorf("%s: stats %+v, want %+v", local.Scenario.Name, local.Stats, want)
		}
		par := recs[topo+"/flood/parallel/B64"]
		if par.Stats != local.Stats || par.Detail != local.Detail {
			t.Errorf("%s: %+v %q differs from its local twin %+v %q",
				par.Scenario.Name, par.Stats, par.Detail, local.Stats, local.Detail)
		}
	}
}
