package exp

import (
	"strings"
	"testing"
	"time"

	"qdc/internal/congest"
)

// TestRunScenarioCancelled proves the cancel poll reaches every backend's
// round loop: a scenario run with an already-fired cancel stops with
// congest.ErrCancelled instead of completing.
func TestRunScenarioCancelled(t *testing.T) {
	path := TopologySpec{Family: FamilyPath, Size: 9}
	for _, s := range []Scenario{
		{Topology: path, Algorithm: AlgDisjointness, Backend: BackendLocal, Bandwidth: 4},
		{Topology: path, Algorithm: AlgDisjointness, Backend: BackendParallel, Bandwidth: 4},
		{Topology: path, Algorithm: AlgDisjointness, Backend: BackendQuantum, Bandwidth: 4},
		{Topology: TopologySpec{Family: FamilyLBNet, Size: 4, Param: 9}, Algorithm: AlgVerify, Backend: BackendSimulation, Bandwidth: 32},
	} {
		s.Name, s.Seed = "cancelled-"+s.Backend, 5
		rec := runScenario(s, 1, func() bool { return true }, false)
		if rec.Error == "" || !strings.Contains(rec.Error, congest.ErrCancelled.Error()) {
			t.Errorf("%s: record = %+v, want a %q error", s.Backend, rec, congest.ErrCancelled)
		}
	}
}

// TestTimeoutTerminatesScenarioGoroutine proves the satellite claim end to
// end at the pool level: when the per-scenario timeout fires, the abandoned
// goroutine observes its cancel poll and exits instead of leaking CPU.
func TestTimeoutTerminatesScenarioGoroutine(t *testing.T) {
	exited := make(chan struct{})
	opts := ExecOptions{
		Workers: 1,
		Timeout: 20 * time.Millisecond,
		run: func(s Scenario, cancel func() bool) Record {
			defer close(exited)
			// Spin like a simulation round loop: make progress only until
			// the pool's timeout flips the cancel poll.
			for !cancel() {
				time.Sleep(time.Millisecond)
			}
			return Record{Scenario: s, Error: "cancelled"}
		},
	}
	var collect Collect
	sum, err := Execute([]Scenario{{Name: "wedged"}}, opts, &collect)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 1 || !strings.Contains(collect.Records[0].Error, "timeout") {
		t.Fatalf("expected a timeout record, got %+v", collect.Records)
	}
	select {
	case <-exited:
		// The abandoned goroutine terminated.
	case <-time.After(5 * time.Second):
		t.Fatal("timed-out scenario goroutine never observed cancellation")
	}
}

// TestRealScenarioTimeoutCancelsSimulation wires a real (not stubbed)
// scenario through the pool with a timeout that always fires before the
// first round: the record reports the timeout, and the simulating goroutine
// must terminate via the cancel poll rather than running the full sweep.
func TestRealScenarioTimeoutCancelsSimulation(t *testing.T) {
	s := Scenario{
		Name:      "slow",
		Topology:  TopologySpec{Family: FamilyPath, Size: 129},
		Algorithm: AlgDisjointness,
		Backend:   BackendLocal,
		Bandwidth: 1,
		Seed:      3,
	}
	var collect Collect
	sum, err := Execute([]Scenario{s}, ExecOptions{Workers: 1, Timeout: time.Nanosecond}, &collect)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 1 || !strings.Contains(collect.Records[0].Error, "timeout") {
		t.Fatalf("expected a timeout record, got %+v", collect.Records)
	}
}
