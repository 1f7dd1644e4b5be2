package exp

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"qdc/internal/graph"
	"qdc/internal/lbnetwork"
)

func TestDefaultMatrixExpansion(t *testing.T) {
	m, ok := LookupMatrix("default")
	if !ok {
		t.Fatal("default matrix not registered")
	}
	scenarios := m.Expand()
	if len(scenarios) < 50 {
		t.Fatalf("default matrix expands to %d scenarios, want >= 50", len(scenarios))
	}
	names := make(map[string]bool, len(scenarios))
	seeds := make(map[int64]bool, len(scenarios))
	for _, s := range scenarios {
		if names[s.Name] {
			t.Fatalf("duplicate scenario name %q", s.Name)
		}
		names[s.Name] = true
		seeds[s.Seed] = true
	}
	if len(seeds) != len(scenarios) {
		t.Errorf("expected distinct per-scenario seeds, got %d for %d scenarios", len(seeds), len(scenarios))
	}
	if again := m.Expand(); !reflect.DeepEqual(scenarios, again) {
		t.Error("expanding the same matrix twice produced different scenarios")
	}
}

func TestTopologyKnobsAreScenarioIdentity(t *testing.T) {
	// Two topologies differing only in Param/MaxWeight must expand into
	// scenarios with distinct names and seeds; otherwise Compare would
	// silently mispair records.
	m := Matrix{
		Name: "collide",
		Topologies: []TopologySpec{
			{Family: FamilyRandom, Size: 40, Param: 0.15},
			{Family: FamilyRandom, Size: 40, Param: 0.3},
			{Family: FamilyRandom, Size: 40, Param: 0.3, MaxWeight: 64},
		},
		Bandwidths: []int{32},
		Backends:   []string{BackendLocal},
		Algorithms: []string{AlgVerify},
		BaseSeed:   1,
	}
	scenarios := m.Expand()
	if len(scenarios) != 3 {
		t.Fatalf("expanded %d scenarios, want 3", len(scenarios))
	}
	names := make(map[string]bool)
	seeds := make(map[int64]bool)
	for _, s := range scenarios {
		if names[s.Name] {
			t.Errorf("colliding scenario name %q", s.Name)
		}
		names[s.Name] = true
		seeds[s.Seed] = true
	}
	if len(seeds) != 3 {
		t.Errorf("expected 3 distinct seeds, got %d", len(seeds))
	}
}

func TestCompatibleRules(t *testing.T) {
	path := TopologySpec{Family: FamilyPath, Size: 9}
	lbnet := TopologySpec{Family: FamilyLBNet, Size: 6, Param: 17}
	cases := []struct {
		name      string
		topo      TopologySpec
		algorithm string
		backend   string
		bandwidth int
		want      bool
	}{
		{"disjointness on path", path, AlgDisjointness, BackendLocal, 32, true},
		{"disjointness off path", TopologySpec{Family: FamilyCycle, Size: 8}, AlgDisjointness, BackendLocal, 32, false},
		{"disjointness under simulation", path, AlgDisjointness, BackendSimulation, 32, false},
		{"simulation off lbnet", path, AlgVerify, BackendSimulation, 32, false},
		{"simulation on lbnet", lbnet, AlgVerify, BackendSimulation, 32, true},
		{"exact mst narrow bandwidth", path, AlgMST, BackendLocal, 32, false},
		{"exact mst wide bandwidth", path, AlgMST, BackendLocal, 128, true},
		{"approx mst narrow bandwidth", path, AlgMSTApprox, BackendLocal, 32, true},
	}
	for _, c := range cases {
		if got, reason := Compatible(c.topo, c.algorithm, c.backend, c.bandwidth); got != c.want {
			t.Errorf("%s: Compatible = %v (%s), want %v", c.name, got, reason, c.want)
		}
	}
}

// TestExactMSTSizedByRealisedVertices: Compatible sizes exact MST's IDs
// by the vertices the topology realises, as mst.Run does. lbnet6(p=17) has
// 121 vertices and so 7-bit IDs, and its widest candidate message needs
// 2 + 1 + 2·7 + 64 = 81 bits: the B = 81 cell expands and runs, and B = 80
// is skipped.
func TestExactMSTSizedByRealisedVertices(t *testing.T) {
	m := Matrix{Name: "lbnet-mst", Topologies: []TopologySpec{{Family: FamilyLBNet, Size: 6, Param: 17}},
		Bandwidths: []int{80, 81}, Backends: []string{BackendLocal}, Algorithms: []string{AlgMST}}
	scenarios := m.Expand()
	if len(scenarios) != 1 || scenarios[0].Bandwidth != 81 {
		t.Fatalf("expanded %+v; want the B=81 cell alone", scenarios)
	}
	if rec := RunScenario(scenarios[0]); rec.Error != "" || !rec.OK {
		t.Fatalf("exact MST at B=81 on lbnet6(p=17): %+v", rec)
	}
}

// TestLBNetSize pins the lower-bound network's size() against the
// constructor's: the vertex count every ID width is sized from and the
// edge count checkSize bounds, for every spec, path lengths New rounds up
// included. At L = 17 an lbnet has Γ² + 30Γ + 31 edges, so checkSize
// accepts Γ = 32,753 and refuses 32,754, counted without building either.
func TestLBNetSize(t *testing.T) {
	cases := []struct {
		gamma, pathLen int
	}{
		{2, 3}, {6, 17}, {10, 33}, {6, 0}, // 0 selects the family default of 17
		{40, 17},
		{40, 18},  // rounding 18 -> 33
		{64, 100}, // rounding 100 -> 129 at scale
		{33, 5},
	}
	for _, c := range cases {
		spec := TopologySpec{Family: FamilyLBNet, Size: c.gamma, Param: float64(c.pathLen)}
		pathLen := c.pathLen
		if pathLen <= 0 {
			pathLen = 17
		}
		nw, err := lbnetwork.New(c.gamma, pathLen)
		if err != nil {
			t.Fatalf("Γ=%d L=%d: %v", c.gamma, pathLen, err)
		}
		if n, m := spec.size(); n != nw.N() || m != nw.Graph.M() {
			t.Errorf("Γ=%d L=%d: size() counts %d vertices and %d edges, the network has %d and %d",
				c.gamma, pathLen, n, m, nw.N(), nw.Graph.M())
		}
	}
	if err := (TopologySpec{Family: FamilyLBNet, Size: 32753}).checkSize(); err != nil {
		t.Errorf("lbnet Γ=32,753 at L=17 refused: %v", err)
	}
	const want = "lbnet of size 32754 has 1073807167 edges, more than 1073741823"
	if err := (TopologySpec{Family: FamilyLBNet, Size: 32754}).checkSize(); err == nil || err.Error() != want {
		t.Errorf("lbnet Γ=32,754 at L=17: %v, want %q", err, want)
	}
}

// TestRandomSizeCountsExpectedEdges pins the edge count checkSize bounds a
// random topology by: randomEdges is the mean edge count of the graphs
// the family draws, within 2% over 40 seeds at n = 60, and at the default
// p = 0.1 it accepts size 146,534 and refuses 146,535, counted without
// building either. A p above 1 adds every pair, as the emitter does.
func TestRandomSizeCountsExpectedEdges(t *testing.T) {
	spec := TopologySpec{Family: FamilyRandom, Size: 60, Param: 0.2}
	const seeds = 40
	drawn := 0
	for seed := range int64(seeds) {
		err := spec.emitEdges(rand.New(rand.NewSource(seed)), func(int, int) graph.EdgeEmitter {
			return func(int, int, float64) { drawn++ }
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	mean, want := float64(drawn)/seeds, float64(randomEdges(60, 0.2))
	if math.Abs(mean-want) > 0.02*want {
		t.Errorf("random60(p=0.2) draws %.1f edges on average, randomEdges counts %.0f", mean, want)
	}
	if got := randomEdges(60, 3); got != 60*59/2 {
		t.Errorf("randomEdges(60, 3) = %d, want every one of the %d pairs", got, 60*59/2)
	}
	if err := (TopologySpec{Family: FamilyRandom, Size: 146534}).checkSize(); err != nil {
		t.Errorf("random of size 146,534 at p=0.1 refused: %v", err)
	}
	const refused = "random of size 146535 has 1073749865 edges, more than 1073741823"
	if err := (TopologySpec{Family: FamilyRandom, Size: 146535}).checkSize(); err == nil || err.Error() != refused {
		t.Errorf("random of size 146,535 at p=0.1: %v, want %q", err, refused)
	}
}

// TestParallelMatchesLocal is the parallel-runner equivalence guarantee:
// for the same scenario and seed, engine.NewParallel and engine.NewLocal
// must produce identical Stats and identical verdicts.
func TestParallelMatchesLocal(t *testing.T) {
	m, _ := LookupMatrix("quick")
	for _, s := range m.Expand() {
		if s.Backend != BackendLocal {
			continue
		}
		local := RunScenario(s)
		par := s
		par.Backend = BackendParallel
		// Same derived seed as the local variant: equivalence is about the
		// backend, not the seed.
		par.Seed = s.Seed
		parallel := RunScenario(par)
		if local.Error != "" || parallel.Error != "" {
			t.Fatalf("%s: errors local=%q parallel=%q", s.Name, local.Error, parallel.Error)
		}
		if local.Stats != parallel.Stats {
			t.Errorf("%s: stats diverge: local=%+v parallel=%+v", s.Name, local.Stats, parallel.Stats)
		}
		if local.OK != parallel.OK || local.Detail != parallel.Detail {
			t.Errorf("%s: verdicts diverge: local=(%v,%q) parallel=(%v,%q)",
				s.Name, local.OK, local.Detail, parallel.OK, parallel.Detail)
		}
	}
}

func TestRunScenarioDeterministic(t *testing.T) {
	s := Scenario{
		Name:      "det",
		Topology:  TopologySpec{Family: FamilyRandom, Size: 12, Param: 0.3, MaxWeight: 16},
		Algorithm: AlgMSTApprox,
		Backend:   BackendLocal,
		Bandwidth: 32,
		Seed:      7,
	}
	a, b := RunScenario(s), RunScenario(s)
	a.WallMillis, b.WallMillis = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same scenario produced different records:\n%+v\n%+v", a, b)
	}
	if !a.OK || a.Error != "" {
		t.Errorf("scenario failed: %+v", a)
	}
}

func TestRunScenarioSimulationBackend(t *testing.T) {
	s := Scenario{
		Name:      "sim",
		Topology:  TopologySpec{Family: FamilyLBNet, Size: 4, Param: 9},
		Algorithm: AlgVerify,
		Backend:   BackendSimulation,
		Bandwidth: 32,
		Seed:      3,
	}
	rec := RunScenario(s)
	if rec.Error != "" || !rec.OK {
		t.Fatalf("simulation scenario failed: %+v", rec)
	}
	if !strings.Contains(rec.Detail, "server_cost=") {
		t.Errorf("simulation record missing server-model accounting: %q", rec.Detail)
	}
}

func TestRunScenarioBadSpecs(t *testing.T) {
	bad := []Scenario{
		{Name: "family", Topology: TopologySpec{Family: "moebius", Size: 8}, Algorithm: AlgVerify, Backend: BackendLocal, Bandwidth: 32},
		{Name: "algorithm", Topology: TopologySpec{Family: FamilyPath, Size: 8}, Algorithm: "sorting", Backend: BackendLocal, Bandwidth: 32},
		{Name: "backend", Topology: TopologySpec{Family: FamilyPath, Size: 8}, Algorithm: AlgVerify, Backend: "telepathy", Bandwidth: 32},
		{Name: "sim-needs-lbnet", Topology: TopologySpec{Family: FamilyPath, Size: 8}, Algorithm: AlgVerify, Backend: BackendSimulation, Bandwidth: 32},
		{Name: "quantum-needs-disjointness", Topology: TopologySpec{Family: FamilyPath, Size: 8}, Algorithm: AlgVerify, Backend: BackendQuantum, Bandwidth: 32},
	}
	for _, s := range bad {
		rec := RunScenario(s)
		if rec.Error == "" {
			t.Errorf("%s: expected an error record, got %+v", s.Name, rec)
		}
	}
}

func TestExecuteQuickMatrix(t *testing.T) {
	m, _ := LookupMatrix("quick")
	scenarios := m.Expand()
	var collect Collect
	var jsonl bytes.Buffer
	jsonlSink := NewJSONLSink(&jsonl)
	sum, err := Execute(scenarios, ExecOptions{Workers: 4}, &collect, jsonlSink)
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonlSink.Close(); err != nil {
		t.Fatal(err)
	}
	if sum.Scenarios != len(scenarios) || len(collect.Records) != len(scenarios) {
		t.Fatalf("summary %+v and %d records, want %d scenarios", sum, len(collect.Records), len(scenarios))
	}
	if sum.Failed != 0 || sum.Passed != len(scenarios) {
		for _, r := range collect.Records {
			if r.Failed() {
				t.Errorf("failed: %s: %s %s", r.Scenario.Name, r.Error, r.Detail)
			}
		}
		t.Fatalf("summary: %+v", sum)
	}
	if lines := bytes.Count(jsonl.Bytes(), []byte("\n")); lines != len(scenarios) {
		t.Errorf("JSONL sink wrote %d lines, want %d", lines, len(scenarios))
	}
}

func TestExecutePanicAndTimeoutIsolation(t *testing.T) {
	scenarios := []Scenario{{Name: "boom"}, {Name: "slow"}, {Name: "fine"}}
	opts := ExecOptions{
		Workers: 3,
		Timeout: 50 * time.Millisecond,
		run: func(s Scenario, cancel func() bool) Record {
			switch s.Name {
			case "boom":
				panic("node exploded")
			case "slow":
				time.Sleep(time.Second)
			}
			return Record{Scenario: s, OK: true}
		},
	}
	var collect Collect
	sum, err := Execute(scenarios, opts, &collect)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Scenarios != 3 || sum.Errors != 2 || sum.Passed != 1 {
		t.Fatalf("summary: %+v", sum)
	}
	byName := make(map[string]Record)
	for _, r := range collect.Records {
		byName[r.Scenario.Name] = r
	}
	if !strings.Contains(byName["boom"].Error, "panic") {
		t.Errorf("panic not isolated: %+v", byName["boom"])
	}
	if !strings.Contains(byName["slow"].Error, "timeout") {
		t.Errorf("timeout not reported: %+v", byName["slow"])
	}
}

func TestSinksRoundTrip(t *testing.T) {
	m, _ := LookupMatrix("quick")
	scenarios := m.Expand()[:4]
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "out.json")
	jsonlPath := filepath.Join(dir, "out.jsonl")
	jsonSink, err := CreateJSON(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	jsonlSink, err := CreateJSONL(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(scenarios, ExecOptions{Workers: 2}, jsonSink, jsonlSink); err != nil {
		t.Fatal(err)
	}
	if err := jsonSink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jsonlSink.Close(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{jsonPath, jsonlPath} {
		recs, err := ReadRecords(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(recs) != len(scenarios) {
			t.Errorf("%s: read %d records, want %d", path, len(recs), len(scenarios))
		}
	}
	// The JSON array is sorted by scenario name regardless of completion
	// order, so snapshots diff cleanly.
	recs, _ := ReadRecords(jsonPath)
	for i := 1; i < len(recs); i++ {
		if recs[i-1].Scenario.Name > recs[i].Scenario.Name {
			t.Errorf("JSON records out of order: %q before %q", recs[i-1].Scenario.Name, recs[i].Scenario.Name)
		}
	}
}

func TestJSONRecordShape(t *testing.T) {
	rec := RunScenario(Scenario{
		Name:      "shape",
		Topology:  TopologySpec{Family: FamilyPath, Size: 5},
		Algorithm: AlgVerify,
		Backend:   BackendLocal,
		Bandwidth: 32,
		Seed:      1,
	})
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Scenario != rec.Scenario || back.Stats != rec.Stats || back.OK != rec.OK {
		t.Errorf("record did not survive a JSON round trip: %+v vs %+v", rec, back)
	}
}

func TestCompare(t *testing.T) {
	mk := func(name string, ok bool, rounds int, bits int64, errMsg string) Record {
		r := Record{OK: ok, Error: errMsg}
		r.Scenario.Name = name
		r.Stats.Rounds = rounds
		r.Stats.Bits = bits
		return r
	}
	old := []Record{
		mk("same", true, 10, 100, ""),
		mk("slower", true, 10, 100, ""),
		mk("cheaper", true, 10, 100, ""),
		mk("breaks", true, 10, 100, ""),
		mk("gone", true, 10, 100, ""),
		mk("was-broken", false, 10, 100, "boom"),
	}
	new := []Record{
		mk("same", true, 10, 100, ""),
		mk("slower", true, 12, 100, ""),
		mk("cheaper", true, 10, 80, ""),
		mk("breaks", false, 10, 100, ""),
		mk("was-broken", true, 99, 999, ""),
		mk("fresh", true, 1, 1, ""),
	}
	diff := Compare(old, new)
	if diff.Clean() {
		t.Fatal("expected regressions")
	}
	kinds := make(map[string]string)
	for _, d := range diff.Regressions {
		kinds[d.Name] = d.Kind
	}
	if kinds["slower"] != "rounds" || kinds["breaks"] != "verdict" {
		t.Errorf("regressions: %v", diff.Regressions)
	}
	if _, ok := kinds["was-broken"]; ok {
		t.Error("a previously broken scenario must not count as a cost regression")
	}
	if len(diff.Improvements) != 1 || diff.Improvements[0].Name != "cheaper" {
		t.Errorf("improvements: %v", diff.Improvements)
	}
	if !reflect.DeepEqual(diff.Added, []string{"fresh"}) || !reflect.DeepEqual(diff.Removed, []string{"gone"}) {
		t.Errorf("added=%v removed=%v", diff.Added, diff.Removed)
	}
}

func TestDeriveSeedStability(t *testing.T) {
	if DeriveSeed(1, "a") != DeriveSeed(1, "a") {
		t.Error("DeriveSeed is not deterministic")
	}
	if DeriveSeed(1, "a") == DeriveSeed(1, "b") || DeriveSeed(1, "a") == DeriveSeed(2, "a") {
		t.Error("DeriveSeed collides on trivially different inputs")
	}
}
