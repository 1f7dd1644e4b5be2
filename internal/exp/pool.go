package exp

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// DefaultTimeout bounds a single scenario run. The CONGEST simulator already
// bounds rounds (64n+64 by default), so a timeout here signals a genuinely
// pathological scenario rather than a slow one.
const DefaultTimeout = 60 * time.Second

// ExecOptions configures one Execute call.
type ExecOptions struct {
	// Workers is the number of scenarios executing concurrently; values
	// <= 0 select GOMAXPROCS.
	Workers int
	// Timeout is the per-scenario wall-clock budget; values <= 0 select
	// DefaultTimeout.
	Timeout time.Duration
	// Metrics opts every scenario into the observability collector: each
	// record carries a ScenarioMetrics block (deterministic, stripped from
	// canonical snapshots). Off by default — disabled metrics cost nothing.
	Metrics bool
	// Status, if non-nil, receives live sweep counters (scenarios done,
	// failed, in flight, node-rounds) as scenarios start and finish; the
	// -listen endpoints and the -progress heartbeat read it concurrently.
	Status *Status
	// run overrides the scenario runner in tests. The cancel poll reports
	// whether the scenario's timeout has fired; real runners forward it to
	// congest.Options.Cancel so a timed-out simulation stops at its next
	// round boundary.
	run func(s Scenario, cancel func() bool) Record
}

// Summary aggregates one Execute call.
type Summary struct {
	Scenarios  int     `json:"scenarios"`
	Passed     int     `json:"passed"`
	Failed     int     `json:"failed"`
	Errors     int     `json:"errors"`
	WallMillis float64 `json:"wall_ms"`
}

// Execute runs every scenario on a pool of worker goroutines and streams
// each Record to every sink as it completes (sinks are written from a single
// collector goroutine, so they need not be thread-safe; JSONL output order
// is completion order, not scenario order).
//
// Worker isolation: a panicking scenario is converted into a Record with an
// Error, and a scenario exceeding the timeout is reported as such; the
// timed-out goroutine sees its cancel poll flip, stops the simulation at
// the next round boundary, and exits instead of leaking CPU.
// Execute itself returns an error only for sink failures; per-scenario
// failures are data, counted in the Summary.
func Execute(scenarios []Scenario, opts ExecOptions, sinks ...Sink) (Summary, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	if workers < 1 {
		workers = 1
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	run := opts.run
	if run == nil {
		// Divide the machine between scenario-level and round-level
		// parallelism: with W scenarios in flight, each parallel-backend
		// runner gets GOMAXPROCS/W stepping goroutines so a full pool does
		// not oversubscribe cores W-fold.
		stepWorkers := runtime.GOMAXPROCS(0) / workers
		if stepWorkers < 1 {
			stepWorkers = 1
		}
		run = func(s Scenario, cancel func() bool) Record { return runScenario(s, stepWorkers, cancel, opts.Metrics) }
	}

	start := time.Now()
	jobs := make(chan Scenario)
	results := make(chan Record)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				opts.Status.ScenarioStarted()
				rec := runIsolated(s, timeout, run)
				opts.Status.ScenarioDone(rec)
				results <- rec
			}
		}()
	}
	go func() {
		for _, s := range scenarios {
			jobs <- s
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	var (
		sum     Summary
		sinkErr error
	)
	// live is a private copy of the sink fan-out: a sink whose Write fails is
	// dropped from it (set to nil) so later records are not written to a dead
	// file — repeated writes burn time and their errors could mask the first,
	// root-cause one. Results keep draining either way so the Summary stays
	// complete and the workers never block on a full channel.
	live := append([]Sink(nil), sinks...)
	for rec := range results {
		sum.Scenarios++
		switch {
		case rec.Error != "":
			sum.Errors++
			sum.Failed++
		case !rec.OK:
			sum.Failed++
		default:
			sum.Passed++
		}
		for i, sink := range live {
			if sink == nil {
				continue
			}
			if err := sink.Write(rec); err != nil {
				if sinkErr == nil {
					sinkErr = fmt.Errorf("exp: sink write: %w", err)
				}
				live[i] = nil
			}
		}
	}
	sum.WallMillis = float64(time.Since(start)) / float64(time.Millisecond)
	return sum, sinkErr
}

// runIsolated executes one scenario on its own goroutine so that the worker
// survives both panics (in stub runners; RunScenario already recovers its
// own) and runs that outlive the timeout. On timeout the expired channel
// closes, the run's cancel poll starts reporting true, and the scenario
// goroutine terminates at its next round boundary — the timeout record is
// returned immediately either way. Timeout and panic records carry the
// elapsed wall time like every other record: they are exactly the scenarios
// the -slowest table and the summary's wall accounting must not lose.
func runIsolated(s Scenario, timeout time.Duration, run func(Scenario, func() bool) Record) Record {
	ch := make(chan Record, 1)
	expired := make(chan struct{})
	cancel := func() bool {
		select {
		case <-expired:
			return true
		default:
			return false
		}
	}
	start := time.Now()
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- Record{Scenario: s, Error: fmt.Sprintf("panic: %v", p), WallMillis: millisSince(start)}
			}
		}()
		ch <- run(s, cancel)
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case rec := <-ch:
		return rec
	case <-timer.C:
		close(expired)
		return Record{Scenario: s, Error: fmt.Sprintf("timeout after %s", timeout), WallMillis: millisSince(start)}
	}
}

// millisSince returns the wall-clock milliseconds elapsed since start.
func millisSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}
