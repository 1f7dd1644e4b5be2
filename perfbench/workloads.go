package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"

	"qdc/internal/exp"
)

// The workloads. Every one is a closed loop: one client runs one pass after
// another. The fanout supervisor is not a workload of its own: its passes
// are dominated by process start-up, which a shared host makes too noisy to
// bound, so sweep-default's traced run measures it instead.
const (
	floodGrid    = "flood-grid"
	floodGridPar = "flood-grid-par"
	sweepDefault = "sweep-default"
)

var workloadNames = []string{floodGrid, floodGridPar, sweepDefault}

// pinnedMatrix is the registry's default matrix without the parallel
// backend, relative to the repository root the benchmark runs from.
const pinnedMatrix = "perfbench/sweep-default.json"

// floodSide is the grid side of the flood workloads: n = 320² = 102,400.
const floodSide = 320

// bench is one workload's state across a run.
type bench struct {
	name string
	// stepWorkers is the round-stepping goroutine count of parallel
	// runners; poolWorkers the concurrent scenarios of an exp.Execute pass;
	// shards the worker processes of a fanout pass.
	stepWorkers, poolWorkers, shards int
	workDir                          string

	matrix    exp.Matrix // sweeps: the pinned matrix at the run's seed
	scenarios []exp.Scenario
	// The oracle, computed before anything is timed: per-scenario outcomes
	// of a sequential composed run, and the canonical snapshot bytes of an
	// in-process exp.Execute pass (sweeps).
	ref         []outcome
	refRecords  []exp.Record
	refSnapshot []byte
	nodeRounds  int64

	frozen string // fanout passes: the seeded spec handed to the CLI
	bin    string // fanout passes: the qdcbench binary
}

func newBench(name string, nproc int, workDir string) (*bench, error) {
	b := &bench{name: name, stepWorkers: 1, poolWorkers: 1, workDir: workDir}
	switch name {
	case floodGrid:
	case floodGridPar:
		b.stepWorkers = nproc
	case sweepDefault:
		b.poolWorkers = nproc
		b.shards = min(2, nproc)
	default:
		return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
	}
	return b, nil
}

func (b *bench) flood() bool { return b.name == floodGrid || b.name == floodGridPar }

// expand loads and expands the workload's scenarios at the given base seed.
// The flood workloads run the roundbench cell grid102400/flood/local/B64;
// flood-grid-par runs it on the parallel backend with the same seed, so its
// outputs must equal flood-grid's.
func (b *bench) expand(seed int64) error {
	if b.flood() {
		m := exp.Matrix{
			Name:       b.name,
			Topologies: []exp.TopologySpec{{Family: exp.FamilyGrid, Size: floodSide * floodSide}},
			Bandwidths: []int{64},
			Backends:   []string{exp.BackendLocal},
			Algorithms: []string{exp.AlgFlood},
			BaseSeed:   seed,
		}
		b.scenarios = m.Expand()
		if b.name == floodGridPar {
			s := &b.scenarios[0]
			s.Backend = exp.BackendParallel
			s.Name = fmt.Sprintf("%s/%s/%s/B%d", s.Topology, s.Algorithm, s.Backend, s.Bandwidth)
		}
		return nil
	}
	m, err := exp.LoadMatrix(pinnedMatrix)
	if err != nil {
		return err
	}
	m.BaseSeed = seed
	b.matrix = m
	b.scenarios = m.Expand()
	return nil
}

// prepare computes the oracle every pass is checked against.
func (b *bench) prepare(seed int64) error {
	if err := b.expand(seed); err != nil {
		return err
	}
	b.ref = make([]outcome, len(b.scenarios))
	b.refRecords = make([]exp.Record, len(b.scenarios))
	b.nodeRounds = 0
	for i, s := range b.scenarios {
		if b.name == floodGridPar {
			// The equivalence reference is the sequential run.
			s.Backend = exp.BackendLocal
		}
		tr := &tracer{}
		o := runScenario(s, 1, tr)
		if o.rec.Failed() {
			return fmt.Errorf("oracle run of %s failed: %s", s.Name, o.rec.Error)
		}
		o.rec.Scenario = b.scenarios[i]
		b.ref[i], b.refRecords[i] = o, o.rec
		b.nodeRounds += tr.nodeRounds
	}
	if b.flood() {
		return nil
	}
	var buf bytes.Buffer
	col := &exp.Collect{}
	if err := b.execute(&buf, col); err != nil {
		return err
	}
	if n := b.mismatches(col.Records); n > 0 {
		return fmt.Errorf("exp.Execute disagrees with the composed run on %d scenarios", n)
	}
	b.refSnapshot = buf.Bytes()
	return nil
}

// prepareFanout freezes the seeded matrix for the qdcbench fanout CLI and,
// unless a binary is already set, finds the one run.sh builds next to this
// program. Only a sweep's traced run makes fanout passes.
func (b *bench) prepareFanout() error {
	if b.bin == "" {
		self, err := os.Executable()
		if err != nil {
			return err
		}
		bin, err := exec.LookPath(filepath.Join(filepath.Dir(self), "qdcbench"))
		if err != nil {
			return fmt.Errorf("qdcbench binary: %w", err)
		}
		b.bin = bin
	}
	b.frozen = filepath.Join(b.workDir, "matrix.json")
	return exp.SaveMatrix(b.frozen, b.matrix)
}

// passResult is one pass of a workload.
type passResult struct {
	wall      time.Duration
	attempted int
	failed    int
	peakMB    float64
	// poolIdle is 1 − Σ record wall / (workers × pass wall), for passes
	// that run a pool (sweeps).
	poolIdle float64
	fanout   fanoutEvents
}

// pass runs one untraced pass of the workload and checks its outputs. heap
// samples the heap high-water mark.
func (b *bench) pass(heap bool) passResult {
	var sampler *heapSampler
	if heap {
		sampler = startHeapSampler()
	}
	var p passResult
	if b.flood() {
		p = b.floodPass()
	} else {
		p = b.sweepPass()
	}
	if sampler != nil {
		p.peakMB = float64(sampler.finish()) / mib
	}
	return p
}

func (b *bench) floodPass() passResult {
	start := time.Now()
	o := runScenario(b.scenarios[0], b.stepWorkers, nil)
	p := passResult{wall: time.Since(start), attempted: 1}
	if b.mismatch(0, o) {
		p.failed = 1
	}
	return p
}

// mismatch reports whether a composed outcome fails or differs from the
// oracle: Stats, verdict, and for floods every vertex's distance.
func (b *bench) mismatch(i int, o outcome) bool {
	ref := b.ref[i]
	return o.rec.Failed() || o.rec.Stats != ref.rec.Stats || !slices.Equal(o.dist, ref.dist)
}

// mismatches counts records that failed or whose Stats differ from the
// oracle's; a record set that does not cover the oracle's scenarios one to
// one counts every scenario.
func (b *bench) mismatches(recs []exp.Record) int {
	d := exp.Compare(b.refRecords, recs)
	if !d.Clean() || len(d.Added) > 0 || len(recs) != len(b.refRecords) {
		return len(b.refRecords)
	}
	want := make(map[string]exp.Record, len(b.refRecords))
	for _, r := range b.refRecords {
		want[r.Scenario.Name] = r
	}
	n := 0
	for _, r := range recs {
		if r.Failed() || r.Stats != want[r.Scenario.Name].Stats {
			n++
		}
	}
	return n
}

func (b *bench) execute(buf *bytes.Buffer, col *exp.Collect) error {
	sink := exp.NewJSONSink(buf)
	if _, err := exp.Execute(b.scenarios, exp.ExecOptions{Workers: b.poolWorkers}, sink, col); err != nil {
		return err
	}
	return sink.Close()
}

func (b *bench) sweepPass() passResult {
	var buf bytes.Buffer
	col := &exp.Collect{Records: make([]exp.Record, 0, len(b.scenarios))}
	start := time.Now()
	err := b.execute(&buf, col)
	failed := b.mismatches(col.Records)
	p := passResult{wall: time.Since(start), attempted: len(b.scenarios), failed: failed}
	if err != nil || !bytes.Equal(buf.Bytes(), b.refSnapshot) {
		p.failed = len(b.scenarios)
	}
	busy := 0.0
	for _, r := range col.Records {
		busy += r.WallMillis / 1000
	}
	p.poolIdle = 1 - busy/(float64(b.poolWorkers)*p.wall.Seconds())
	return p
}

// fanoutEvents is what a pass reads back from the CLI's -events log.
type fanoutEvents struct {
	firstRecord time.Duration // log open to the first scenario record
	workerMax   time.Duration // slowest shard's final attempt, start to done
	retries     int
}

// fanoutPass runs `qdcbench fanout` over the frozen spec, checks that its
// merged snapshot is byte-identical to the in-process one and reads the
// supervisor's figures back from its event log.
func (b *bench) fanoutPass() passResult {
	out := filepath.Join(b.workDir, "fanout.json")
	eventsPath := filepath.Join(b.workDir, "events.jsonl")
	args := []string{"fanout", "-shards", strconv.Itoa(b.shards), "-workers", "1",
		"-matrix", b.frozen, "-dir", filepath.Join(b.workDir, "streams"), "-json", out,
		"-events", eventsPath}
	os.Remove(out) //nolint:errcheck // a stale snapshot must not pass the check
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.bin, args...)
	// The supervisor forwards SIGTERM to its workers' process groups.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	var log bytes.Buffer
	cmd.Stdout, cmd.Stderr = &log, &log

	start := time.Now()
	err := cmd.Run()
	p := passResult{wall: time.Since(start), attempted: len(b.scenarios)}
	got, rerr := os.ReadFile(out)
	if err != nil || rerr != nil || !bytes.Equal(got, b.refSnapshot) {
		fmt.Fprintf(os.Stderr, "perfbench: fanout pass failed (%v, %v):\n%s", err, rerr, log.Bytes())
		p.failed = len(b.scenarios)
		return p
	}
	ev, err := readFanoutEvents(eventsPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		p.failed = len(b.scenarios)
		return p
	}
	p.fanout = ev
	return p
}

func readFanoutEvents(path string) (fanoutEvents, error) {
	f, err := os.Open(path)
	if err != nil {
		return fanoutEvents{}, err
	}
	defer f.Close()
	var (
		ev      fanoutEvents
		first   = -1.0
		started = map[float64]float64{}
		took    = map[float64]float64{}
	)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e struct {
			Elapsed float64        `json:"elapsed_ms"`
			Kind    string         `json:"event"`
			Data    map[string]any `json:"data"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fanoutEvents{}, fmt.Errorf("events %s: %w", path, err)
		}
		shard, _ := e.Data["shard"].(float64)
		switch e.Kind {
		case "scenario":
			if first < 0 {
				first = e.Elapsed
			}
		case "worker_start":
			started[shard] = e.Elapsed
		case "worker_done":
			took[shard] = e.Elapsed - started[shard]
		case "worker_retry":
			ev.retries++
		}
	}
	if err := sc.Err(); err != nil {
		return fanoutEvents{}, err
	}
	if first < 0 || len(took) == 0 {
		return fanoutEvents{}, fmt.Errorf("events %s: no scenario or worker_done event", path)
	}
	ev.firstRecord = time.Duration(first * float64(time.Millisecond))
	for _, ms := range took {
		if d := time.Duration(ms * float64(time.Millisecond)); d > ev.workerMax {
			ev.workerMax = d
		}
	}
	return ev, nil
}

// composePass runs every scenario through the composition one at a time,
// writes the records through a canonical JSON sink and compares them with
// the oracle, timing each layer into tr when tr is non-nil. It returns the
// pass wall time and the scenarios that failed or drifted from the oracle.
func (b *bench) composePass(tr *tracer) (time.Duration, int) {
	start := time.Now()
	var buf bytes.Buffer
	var sink exp.Sink = exp.NewJSONSink(&buf)
	if tr != nil {
		sink = timedSink{Sink: sink, tr: tr}
	}
	recs := make([]exp.Record, len(b.scenarios))
	failed := 0
	for i, s := range b.scenarios {
		o := runScenario(s, b.stepWorkers, tr)
		if b.mismatch(i, o) {
			failed++
		}
		recs[i] = o.rec
		sink.Write(o.rec) //nolint:errcheck // the in-memory sink cannot fail
	}
	sink.Close() //nolint:errcheck // the in-memory sink cannot fail
	t0 := tr.now()
	d := exp.Compare(b.refRecords, recs)
	tr.since(spanCompare, t0)
	if !d.Clean() || len(d.Added) > 0 {
		failed = len(b.scenarios)
	}
	return time.Since(start), failed
}
