package exp

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"qdc/internal/dist/engine"
	"qdc/internal/obs"
)

// metricsScenarios covers every backend family the observer hook threads
// through: plain local, the pooled parallel merge, Grover re-accounting and
// the Simulation Theorem runner.
func metricsScenarios() []Scenario {
	return []Scenario{
		{
			Name:      "local-mst",
			Topology:  TopologySpec{Family: FamilyRandom, Size: 12, Param: 0.3, MaxWeight: 16},
			Algorithm: AlgMSTApprox,
			Backend:   BackendLocal,
			Bandwidth: 32,
			Seed:      7,
		},
		{
			Name:      "parallel-verify",
			Topology:  TopologySpec{Family: FamilyRandom, Size: 16, Param: 0.3, MaxWeight: 16},
			Algorithm: AlgVerify,
			Backend:   BackendParallel,
			Bandwidth: 32,
			Seed:      11,
		},
		{
			Name:      "quantum-disj",
			Topology:  TopologySpec{Family: FamilyPath, Size: 6},
			Algorithm: AlgDisjointness,
			Backend:   BackendQuantum,
			Bandwidth: 16,
			Seed:      5,
		},
		{
			Name:      "sim-verify",
			Topology:  TopologySpec{Family: FamilyLBNet, Size: 4, Param: 9},
			Algorithm: AlgVerify,
			Backend:   BackendSimulation,
			Bandwidth: 32,
			Seed:      3,
		},
	}
}

// TestMetricsByteIdentical pins the PR's central determinism guarantee: with
// metrics enabled, a record — metrics block included — is byte-for-bit
// identical across step-worker counts, and stripping the block recovers the
// exact record a metrics-disabled run produces. WallMillis is the one
// excluded field.
func TestMetricsByteIdentical(t *testing.T) {
	for _, s := range metricsScenarios() {
		plain := runScenario(s, 1, nil, false)
		plain.WallMillis = 0
		if plain.Failed() {
			t.Fatalf("%s: scenario failed: %+v", s.Name, plain)
		}
		if plain.Metrics != nil {
			t.Fatalf("%s: metrics-disabled run grew a metrics block", s.Name)
		}
		var base []byte
		for _, stepWorkers := range []int{1, 4} {
			rec := runScenario(s, stepWorkers, nil, true)
			rec.WallMillis = 0
			if rec.Metrics == nil {
				t.Fatalf("%s workers=%d: no metrics collected", s.Name, stepWorkers)
			}
			got, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = got
			} else if !bytes.Equal(base, got) {
				t.Errorf("%s: metrics record diverged across Workers {1,4}:\n%s\n%s", s.Name, base, got)
			}
			stripped := rec
			stripped.Metrics = nil
			if !reflect.DeepEqual(stripped, plain) {
				t.Errorf("%s workers=%d: observed run differs from unobserved beyond Metrics:\nobs   %+v\nplain %+v",
					s.Name, stepWorkers, stripped, plain)
			}
		}
	}
}

// TestMetricsContentConsistent cross-checks the histograms against the
// record's own accounting on a classical backend: one observation per round,
// and the per-round message and bit sums refold to the Stats totals.
func TestMetricsContentConsistent(t *testing.T) {
	s := metricsScenarios()[0] // local backend: Stats and observed rounds coincide
	rec := runScenario(s, 1, nil, true)
	if rec.Failed() || rec.Metrics == nil {
		t.Fatalf("scenario failed or unobserved: %+v", rec)
	}
	m := rec.Metrics
	if m.Rounds != rec.Stats.Rounds || m.Stages != rec.Stats.Stages {
		t.Errorf("metrics stages/rounds %d/%d, stats %d/%d", m.Stages, m.Rounds, rec.Stats.Stages, rec.Stats.Rounds)
	}
	if m.MessagesPerRound.Count != int64(m.Rounds) {
		t.Errorf("messages histogram has %d observations for %d rounds", m.MessagesPerRound.Count, m.Rounds)
	}
	if m.MessagesPerRound.Sum != int64(rec.Stats.Messages) {
		t.Errorf("messages histogram sums to %d, stats count %d", m.MessagesPerRound.Sum, rec.Stats.Messages)
	}
	if got := m.ClassicalBitsPerRound.Sum + m.QuantumBitsPerRound.Sum; got != rec.Stats.Bits {
		t.Errorf("bit histograms sum to %d, stats %d", got, rec.Stats.Bits)
	}
}

// TestExecuteMetricsAndStatus runs a real matrix through the executor with
// metrics and a live Status and checks both ends: every record carries a
// block, and the status counters add up when the sweep settles.
func TestExecuteMetricsAndStatus(t *testing.T) {
	m, _ := LookupMatrix("quick")
	scenarios := m.Expand()
	status := NewStatus(len(scenarios))
	var collect Collect
	sum, err := Execute(scenarios, ExecOptions{Workers: 4, Metrics: true, Status: status}, &collect)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("quick matrix failed under metrics: %+v", sum)
	}
	for _, r := range collect.Records {
		if r.Metrics == nil {
			t.Errorf("%s: no metrics block", r.Scenario.Name)
		}
	}
	if got := status.Done.Load(); got != int64(len(scenarios)) {
		t.Errorf("status done = %d, want %d", got, len(scenarios))
	}
	if got := status.InFlight.Load(); got != 0 {
		t.Errorf("status in-flight = %d after completion", got)
	}
	if status.NodeRounds.Load() <= 0 {
		t.Error("status accumulated no node-rounds")
	}
	prog, ok := status.Progress().(map[string]any)
	if !ok {
		t.Fatalf("Progress() = %T, want map", status.Progress())
	}
	if prog["done"] != int64(len(scenarios)) || prog["total"] != len(scenarios) {
		t.Errorf("progress = %v", prog)
	}
	reg := obs.NewRegistry()
	status.Register(reg)
	snap := reg.Snapshot()
	for _, name := range []string{"scenarios_total", "scenarios_done", "scenarios_failed",
		"scenarios_in_flight", "node_rounds", "node_rounds_per_sec"} {
		if _, ok := snap[name]; !ok {
			t.Errorf("registry missing %q", name)
		}
	}
}

// TestNodeRoundsCountRealisedVertices feeds records into a Status and into
// NodeRoundsPerSec: both multiply rounds by the vertices the topology
// realises. For the lower-bound network that is Γ·L + L + K − 2 (121 for
// lbnet6 at p=17), not the path count Γ that Size holds; for a grid it is
// the largest square not above Size.
func TestNodeRoundsCountRealisedVertices(t *testing.T) {
	for _, tc := range []struct {
		topo     TopologySpec
		vertices int64
	}{
		{TopologySpec{Family: FamilyLBNet, Size: 6, Param: 17}, 121},
		{TopologySpec{Family: FamilyGrid, Size: 40}, 36},
		{TopologySpec{Family: FamilyPath, Size: 33}, 33},
	} {
		rec := Record{Scenario: Scenario{Topology: tc.topo}, Stats: engine.Stats{Rounds: 10}, OK: true, WallMillis: 1000}
		st := NewStatus(1)
		st.ScenarioStarted()
		st.ScenarioDone(rec)
		if got := st.NodeRounds.Load(); got != 10*tc.vertices {
			t.Errorf("%s: Status counted %d node-rounds, want %d", tc.topo, got, 10*tc.vertices)
		}
		st.ScenarioUncounted(rec)
		if got := st.NodeRounds.Load(); got != 0 {
			t.Errorf("%s: %d node-rounds left after ScenarioUncounted, want 0", tc.topo, got)
		}
		if got := NodeRoundsPerSec(rec); got != float64(10*tc.vertices) {
			t.Errorf("%s: NodeRoundsPerSec = %g, want %d", tc.topo, got, 10*tc.vertices)
		}
	}
}

// TestJSONSinkStripsMetrics pins the snapshot guarantee: the canonical JSON
// array is byte-identical whether or not the records carried metrics.
func TestJSONSinkStripsMetrics(t *testing.T) {
	rec := runScenario(metricsScenarios()[0], 1, nil, true)
	if rec.Metrics == nil {
		t.Fatal("no metrics collected")
	}
	bare := rec
	bare.Metrics = nil

	var with, without bytes.Buffer
	sw := NewJSONSink(&with)
	if err := sw.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	so := NewJSONSink(&without)
	if err := so.Write(bare); err != nil {
		t.Fatal(err)
	}
	if err := so.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(with.Bytes(), without.Bytes()) {
		t.Errorf("canonical snapshot changed under metrics:\n%s\n%s", with.Bytes(), without.Bytes())
	}
	if strings.Contains(with.String(), "metrics") {
		t.Error("canonical snapshot leaked a metrics block")
	}
}

// TestEventSinkStream checks the JSONL activity stream: one "scenario" event
// per record with the identifying fields.
func TestEventSinkStream(t *testing.T) {
	var buf bytes.Buffer
	log := obs.NewEventLog(&buf)
	sink := NewEventSink(log)
	if err := sink.Write(Record{Scenario: Scenario{Name: "a"}, OK: true}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Write(Record{Scenario: Scenario{Name: "b"}, Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d event lines, want 2: %q", len(lines), buf.String())
	}
	var ev obs.Event
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "scenario" {
		t.Errorf("event kind = %q", ev.Kind)
	}
	data, _ := ev.Data.(map[string]any)
	if data["name"] != "b" || data["error"] != "boom" {
		t.Errorf("event data = %v", data)
	}
}
