package exp

import (
	"time"

	"qdc/internal/congest"
	"qdc/internal/obs"
)

// ScenarioMetrics is the optional observability block of a Record: per-round
// traffic distributions folded from every stage the scenario's runner
// executed. Every field is a pure function of the scenario (histograms of
// deterministic per-round quantities), so metrics blocks reproduce exactly
// across hosts and across Workers settings; wall-clock-derived rates live
// only in the live sweep Status, never here. Canonical JSON snapshots strip
// the block (see JSONSink), keeping baseline files byte-identical whether or
// not a sweep collected metrics.
type ScenarioMetrics struct {
	// Stages and Rounds mirror the stage/round totals the histograms were
	// folded over (Rounds equals Stats.Rounds for the classical backends;
	// under Grover re-accounting it is the observed classical round count).
	Stages int `json:"stages"`
	Rounds int `json:"rounds"`
	// MessagesPerRound, ClassicalBitsPerRound and QuantumBitsPerRound are
	// power-of-two histograms of one round's delivered messages, classical
	// bits and qubits, one observation per executed round.
	MessagesPerRound      obs.HistogramSnapshot `json:"messages_per_round"`
	ClassicalBitsPerRound obs.HistogramSnapshot `json:"classical_bits_per_round"`
	QuantumBitsPerRound   obs.HistogramSnapshot `json:"quantum_bits_per_round"`
}

// metricsCollector implements engine.StageObserver: it folds every stage's
// per-round traffic split into the scenario's histograms. A collector
// belongs to one scenario run and is only touched from that run's goroutine.
type metricsCollector struct {
	stages int
	rounds int
	msgs   obs.Histogram
	cbits  obs.Histogram
	qbits  obs.Histogram
}

// StageDone implements engine.StageObserver.
func (c *metricsCollector) StageDone(res *congest.Result) {
	c.stages++
	c.rounds += res.Rounds
	for _, rt := range res.PerRound {
		c.msgs.Observe(int64(rt.Messages))
		c.cbits.Observe(rt.ClassicalBits)
		c.qbits.Observe(rt.QuantumBits)
	}
}

// metrics returns the collected block, or nil when no stage ever reported
// (e.g. the scenario failed before its first stage).
func (c *metricsCollector) metrics() *ScenarioMetrics {
	if c.stages == 0 {
		return nil
	}
	return &ScenarioMetrics{
		Stages:                c.stages,
		Rounds:                c.rounds,
		MessagesPerRound:      c.msgs.Snapshot(),
		ClassicalBitsPerRound: c.cbits.Snapshot(),
		QuantumBitsPerRound:   c.qbits.Snapshot(),
	}
}

// Status is the live view of a sweep, shared between the executor's worker
// goroutines and whatever reads it concurrently (the -listen /progress
// endpoint, the -progress heartbeat). All fields are safe for concurrent
// use; everything it reports is monitoring data, never part of a Record.
type Status struct {
	// Total is the number of scenarios the sweep will run.
	Total int
	// Done, Failed and InFlight count completed records, the failed subset,
	// and scenarios currently executing.
	Done     obs.Counter
	Failed   obs.Counter
	InFlight obs.Gauge
	// NodeRounds accumulates rounds × realised vertex count over completed
	// records — the sweep-wide simulation throughput numerator.
	NodeRounds obs.Counter

	start time.Time
}

// NewStatus returns a Status for a sweep of total scenarios, with the rate
// clock started now.
func NewStatus(total int) *Status {
	return &Status{Total: total, start: time.Now()}
}

// ScenarioStarted records a scenario entering execution.
func (st *Status) ScenarioStarted() {
	if st != nil {
		st.InFlight.Add(1)
	}
}

// ScenarioDone folds one completed record into the live counters.
func (st *Status) ScenarioDone(rec Record) {
	if st == nil {
		return
	}
	st.InFlight.Add(-1)
	st.Done.Inc()
	if rec.Failed() {
		st.Failed.Inc()
	}
	st.NodeRounds.Add(rec.nodeRounds())
}

// ScenarioUncounted removes a previously counted record from the live
// counters. The fan-out supervisor streams records as each worker's JSONL
// lines complete; when a worker crashes mid-shard those records are
// discarded and the retry re-runs the whole shard, so without the rollback
// the retried records would be counted twice and Done could exceed Total.
func (st *Status) ScenarioUncounted(rec Record) {
	if st == nil {
		return
	}
	st.Done.Add(-1)
	if rec.Failed() {
		st.Failed.Add(-1)
	}
	st.NodeRounds.Add(-rec.nodeRounds())
}

// NodeRoundsPerSec returns the sweep-wide simulation throughput so far.
func (st *Status) NodeRoundsPerSec() float64 {
	secs := time.Since(st.start).Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(st.NodeRounds.Load()) / secs
}

// Progress returns the JSON value served at /progress: a self-contained
// snapshot a dashboard can poll.
func (st *Status) Progress() any {
	done := st.Done.Load()
	return map[string]any{
		"total":               st.Total,
		"done":                done,
		"failed":              st.Failed.Load(),
		"in_flight":           st.InFlight.Load(),
		"node_rounds":         st.NodeRounds.Load(),
		"node_rounds_per_sec": st.NodeRoundsPerSec(),
		"elapsed_ms":          float64(time.Since(st.start)) / float64(time.Millisecond),
	}
}

// Register publishes the live counters on reg under stable names, for the
// /vars endpoint.
func (st *Status) Register(reg *obs.Registry) {
	reg.Publish("scenarios_total", func() any { return st.Total })
	reg.PublishCounter("scenarios_done", &st.Done)
	reg.PublishCounter("scenarios_failed", &st.Failed)
	reg.PublishGauge("scenarios_in_flight", &st.InFlight)
	reg.PublishCounter("node_rounds", &st.NodeRounds)
	reg.Publish("node_rounds_per_sec", func() any { return st.NodeRoundsPerSec() })
}

// EventSink forwards every completed record to an obs.EventLog as a
// "scenario" event, giving long sweeps a tail-able JSONL activity stream
// (completion order, wall-clock stamped) next to the canonical results. The
// sink does not own the log: Close flushes nothing, so one log can carry
// sweep-level events around the per-record stream.
type EventSink struct {
	log *obs.EventLog
}

// NewEventSink wraps an event log in a Sink.
func NewEventSink(log *obs.EventLog) *EventSink { return &EventSink{log: log} }

// Write implements Sink.
func (e *EventSink) Write(r Record) error { return e.log.Emit("scenario", ScenarioEvent(r)) }

// ScenarioEvent is the payload of the "scenario" event a sweep logs per
// completed record; the fanout supervisor adds the shard it came from.
func ScenarioEvent(r Record) map[string]any {
	data := map[string]any{
		"name":    r.Scenario.Name,
		"ok":      r.OK,
		"wall_ms": r.WallMillis,
		"rounds":  r.Stats.Rounds,
		"bits":    r.Stats.Bits,
	}
	if r.Error != "" {
		data["error"] = r.Error
	}
	return data
}

// Close implements Sink; the event log stays open for the caller's
// sweep-level events.
func (e *EventSink) Close() error { return nil }
