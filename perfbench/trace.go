package main

import (
	"runtime/metrics"
	"sync"
	"time"

	"qdc/internal/congest"
	"qdc/internal/dist/engine"
	"qdc/internal/exp"
	"qdc/internal/simulation"
)

// span names one timed layer boundary of the traced run. Every span is
// recorded from outside the layer: around a public call, or at the node
// program boundary a timedRunner wraps.
type span int

const (
	spanGraphBuild span = iota
	spanLBNetBuild
	spanGraphCheck
	spanRunnerNew
	spanStage // engine RunStage, = congest setup + step + merge
	spanQuantumStage
	spanSimStage
	spanCongestSetup
	spanCongestStep
	spanCongestMerge
	spanDistVerify
	spanDistMST
	spanDistDisjointness
	spanDistFlood
	spanSink
	spanCompare
	numSpans
)

// tracer accumulates one traced pass. A nil *tracer records nothing, which
// is how the same composition runs untraced.
type tracer struct {
	d [numSpans]time.Duration

	stages     int
	allocBytes uint64
	rounds     int64
	// nodeRounds is Σ over stages of the realised Runner.Size() × the rounds
	// congest executed. exp's NodeRoundsPerSec and Status.NodeRounds use
	// TopologySpec.Size instead, which for lbnet counts Γ, not vertices.
	nodeRounds int64
	messages   int64
	bits       int64
}

func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) since(s span, start time.Time) {
	if t != nil {
		t.d[s] += time.Since(start)
	}
}

// distTotal is the time spent inside the dist entry points, stages included.
func (t *tracer) distTotal() time.Duration {
	return t.d[spanDistVerify] + t.d[spanDistMST] + t.d[spanDistDisjointness] + t.d[spanDistFlood]
}

// selfTotal sums every layer's self time: the spans that do not nest in one
// another plus dist's time outside its stages.
func (t *tracer) selfTotal() time.Duration {
	return t.d[spanGraphBuild] + t.d[spanLBNetBuild] + t.d[spanGraphCheck] + t.d[spanRunnerNew] +
		t.d[spanStage] + (t.distTotal() - t.d[spanStage]) + t.d[spanSink] + t.d[spanCompare]
}

// stageKind returns the backend-specific stage span of a runner, or -1.
func stageKind(r engine.Runner) span {
	switch r.(type) {
	case *engine.Quantum:
		return spanQuantumStage
	case *simulation.Runner:
		return spanSimStage
	}
	return -1
}

// heapAllocs reads the cumulative bytes allocated by the process without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timedRunner is the engine.Runner decorator of the traced run. RunStage
// wraps the factory's nodes 0 and n−1 so their Round calls timestamp the
// round boundaries; every other node passes through untouched.
type timedRunner struct {
	engine.Runner
	tr   *tracer
	kind span
}

func (t *timedRunner) RunStage(factory congest.NodeFactory, inputs map[int]any, maxRounds int) (*congest.Result, error) {
	n := t.Runner.Size()
	c := &stageClock{start: time.Now()}
	wrapped := func(ctx *congest.Context) congest.Node {
		nd := factory(ctx)
		first, last := ctx.ID() == 0, ctx.ID() == n-1
		if nd == nil || !(first || last) {
			return nd
		}
		return &clockNode{Node: nd, clock: c, first: first, last: last}
	}
	allocs := heapAllocs()
	res, err := t.Runner.RunStage(wrapped, inputs, maxRounds)
	end := time.Since(c.start)
	t.tr.allocBytes += heapAllocs() - allocs

	setup, step, merge := c.split(end)
	t.tr.d[spanStage] += end
	if t.kind >= 0 {
		t.tr.d[t.kind] += end
	}
	t.tr.d[spanCongestSetup] += setup
	t.tr.d[spanCongestStep] += step
	t.tr.d[spanCongestMerge] += merge
	t.tr.stages++
	if res != nil {
		t.tr.rounds += int64(res.Rounds)
		t.tr.nodeRounds += int64(n) * int64(res.Rounds)
		t.tr.messages += int64(res.TotalMessages)
		t.tr.bits += res.TotalBits
	}
	return res, err
}

// stageClock holds one stage's round-boundary timestamps, as offsets from
// the RunStage entry. Under Workers > 1 nodes 0 and n−1 may step on
// different goroutines, hence the lock; their times are then approximate
// and include barrier waits.
type stageClock struct {
	start time.Time
	mu    sync.Mutex
	enter []time.Duration // node 0's Round entry, per round
	exit  []time.Duration // node n−1's Round return, per round
}

// split divides the stage [0, end] into setup (to node 0's first Round),
// step (node 0's entry to node n−1's return, per round) and merge (from
// there to the next round's entry, or to the stage's return).
func (c *stageClock) split(end time.Duration) (setup, step, merge time.Duration) {
	if len(c.enter) == 0 {
		return end, 0, 0
	}
	setup = c.enter[0]
	for r, in := range c.enter {
		out := in
		if r < len(c.exit) && c.exit[r] > in {
			out = c.exit[r]
		}
		next := end
		if r+1 < len(c.enter) {
			next = c.enter[r+1]
		}
		step += out - in
		merge += next - out
	}
	return setup, step, merge
}

type clockNode struct {
	congest.Node
	clock       *stageClock
	first, last bool
}

func (c *clockNode) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	if c.first {
		at := time.Since(c.clock.start)
		c.clock.mu.Lock()
		c.clock.enter = append(c.clock.enter, at)
		c.clock.mu.Unlock()
	}
	out, done := c.Node.Round(ctx, round, inbox)
	if c.last {
		at := time.Since(c.clock.start)
		c.clock.mu.Lock()
		c.clock.exit = append(c.clock.exit, at)
		c.clock.mu.Unlock()
	}
	return out, done
}

// timedSink times every Write and the Close of the sink it wraps.
type timedSink struct {
	exp.Sink
	tr *tracer
}

func (s timedSink) Write(r exp.Record) error {
	defer s.tr.since(spanSink, time.Now())
	return s.Sink.Write(r)
}

func (s timedSink) Close() error {
	defer s.tr.since(spanSink, time.Now())
	return s.Sink.Close()
}
