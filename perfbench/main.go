// Command perfbench is the repository's performance benchmark. It runs one
// workload through the layers' public entry points for a fixed time, checks
// every output against an independent reference, and prints the metrics as
// one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload sweep-default --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced passes; with
// --trace 1 it reports per-layer metrics from a separate traced run that
// times every call into a layer from outside it. README.md in this
// directory lists the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: flood-grid, flood-grid-par or sweep-default")
	seed := flag.Int64("seed", 1, "base seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 10, "how long the timed (or traced) passes run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// An untraced run sets up at least minSetups times, and keeps repeating
// while the set-ups so far took less than setupBudget (at most maxSetups
// times), so cheap set-ups get a steadier median; setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

func run(workload string, seed int64, seconds time.Duration, trace bool) error {
	workDir, err := filepath.Abs(filepath.Join(".bench_build", "work", workload))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	nproc := runtime.NumCPU()
	b, err := newBench(workload, nproc, workDir)
	if err != nil {
		return err
	}
	if err := b.prepare(seed); err != nil {
		return err
	}

	res := result{Metrics: map[string]metric{}}
	account := func(p passResult) {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	// A traced run needs one set-up, for its warm-up pass.
	var setups []float64
	for began := time.Now(); ; {
		start := time.Now()
		if err := b.expand(seed); err != nil {
			return err
		}
		account(b.pass(false))
		setups = append(setups, time.Since(start).Seconds())
		if trace || len(setups) == maxSetups || len(setups) >= minSetups && time.Since(began) >= setupBudget {
			break
		}
	}

	if trace {
		if err := tracedRun(b, seconds, account, res.Metrics); err != nil {
			return err
		}
		put(res.Metrics, "failed_frac", float64(res.Failed)/float64(res.Attempted), "ratio")
	} else {
		var walls, peaks []float64
		for deadline := time.Now().Add(seconds); len(walls) == 0 || time.Now().Before(deadline); {
			runtime.GC()
			p := b.pass(true)
			account(p)
			walls = append(walls, p.wall.Seconds())
			peaks = append(peaks, p.peakMB)
		}
		p50 := median(walls)
		put(res.Metrics, "setup_s", median(setups), "s")
		put(res.Metrics, "pass_s_p50", p50, "s")
		put(res.Metrics, "node_rounds_per_s", float64(b.nodeRounds)/p50, "1/s")
		put(res.Metrics, "scenarios_per_s", float64(len(b.scenarios))/p50, "1/s")
		put(res.Metrics, "peak_heap_mb", median(peaks), "MiB")
	}
	res.Correct = res.Failed == 0

	host, err := json.Marshal(map[string]any{"host": map[string]any{
		"workload": workload, "seed": seed, "trace": trace,
		"nproc": nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"os_arch":      runtime.GOOS + "/" + runtime.GOARCH,
		"pool_workers": b.poolWorkers, "step_workers": b.stepWorkers, "shards": b.shards,
		"scenarios": len(b.scenarios), "node_rounds_per_pass": b.nodeRounds,
	}})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", host, line)
	return nil
}

func put(m map[string]metric, name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

// tracedRun fills the per-layer metrics. It alternates an untraced pass of
// the workload (pass time, process counters, pool figures), a traced
// composed pass (layer spans) and, for the sweep, an untraced composed pass,
// so the tracing overhead compares like with like, and a qdcbench fanout
// pass of the same scenarios (fanout figures). Every figure is the median
// over its passes.
func tracedRun(b *bench, seconds time.Duration, account func(passResult), m map[string]metric) error {
	if !b.flood() {
		if err := b.prepareFanout(); err != nil {
			return err
		}
	}
	var (
		walls, compWalls, tracedWalls, coverage   []float64
		cpu, gcs, pauses, allocs, mallocs, idle   []float64
		first, workerMax, supervise, retries      []float64
		spans                                     [numSpans][]float64
		stages, allocMB, rounds, nodeRounds, msgs []float64
		bits, nsPerNodeRound, distSelf            []float64
	)
	for deadline := time.Now().Add(seconds); len(walls) == 0 || time.Now().Before(deadline); {
		runtime.GC()
		before := readProc()
		p := b.pass(false)
		d := before.to(readProc())
		account(p)
		walls = append(walls, p.wall.Seconds())
		idle = append(idle, p.poolIdle)
		cpu, gcs, pauses = append(cpu, d.cpuS), append(gcs, d.gcCycles), append(pauses, d.gcPauseMs)
		allocs, mallocs = append(allocs, d.allocMB), append(mallocs, d.mallocs)

		runtime.GC()
		tr := &tracer{}
		wall, failed := b.composePass(tr)
		account(passResult{attempted: len(b.scenarios), failed: failed})
		tracedWalls = append(tracedWalls, wall.Seconds())
		coverage = append(coverage, tr.selfTotal().Seconds()/wall.Seconds())
		for s := range spans {
			spans[s] = append(spans[s], tr.d[s].Seconds())
		}
		distSelf = append(distSelf, (tr.distTotal() - tr.d[spanStage]).Seconds())
		stages = append(stages, float64(tr.stages))
		allocMB = append(allocMB, float64(tr.allocBytes)/mib)
		rounds, nodeRounds = append(rounds, float64(tr.rounds)), append(nodeRounds, float64(tr.nodeRounds))
		msgs, bits = append(msgs, float64(tr.messages)), append(bits, float64(tr.bits))
		loop := tr.d[spanCongestStep] + tr.d[spanCongestMerge]
		nsPerNodeRound = append(nsPerNodeRound, float64(loop.Nanoseconds())/float64(max(tr.nodeRounds, 1)))

		if b.flood() {
			// The workload's pass is the untraced composition itself.
			compWalls = append(compWalls, p.wall.Seconds())
			continue
		}
		runtime.GC()
		wall, failed = b.composePass(nil)
		account(passResult{attempted: len(b.scenarios), failed: failed})
		compWalls = append(compWalls, wall.Seconds())

		runtime.GC()
		f := b.fanoutPass()
		account(f)
		first = append(first, f.fanout.firstRecord.Seconds())
		workerMax = append(workerMax, f.fanout.workerMax.Seconds())
		supervise = append(supervise, (f.wall - f.fanout.workerMax).Seconds())
		retries = append(retries, float64(f.fanout.retries))
	}

	sec := func(name string, s span) { put(m, name, median(spans[s]), "s") }
	sec("congest.setup_s", spanCongestSetup)
	sec("congest.step_s", spanCongestStep)
	sec("congest.merge_s", spanCongestMerge)
	put(m, "congest.ns_per_node_round", median(nsPerNodeRound), "ns")
	put(m, "congest.alloc_mb", median(allocMB), "MiB")
	put(m, "congest.rounds", median(rounds), "count")
	put(m, "congest.node_rounds", median(nodeRounds), "count")
	put(m, "congest.messages", median(msgs), "count")
	put(m, "congest.bits", median(bits), "count")
	sec("engine.runner_new_s", spanRunnerNew)
	sec("engine.stage_s", spanStage)
	put(m, "engine.stages", median(stages), "count")
	sec("engine.quantum_stage_s", spanQuantumStage)
	sec("simulation.stage_s", spanSimStage)
	sec("dist.verify_s", spanDistVerify)
	sec("dist.mst_s", spanDistMST)
	sec("dist.disjointness_s", spanDistDisjointness)
	sec("dist.flood_s", spanDistFlood)
	put(m, "dist.self_s", median(distSelf), "s")
	sec("graph.build_s", spanGraphBuild)
	sec("lbnetwork.build_s", spanLBNetBuild)
	sec("graph.check_s", spanGraphCheck)
	put(m, "exp.pool_idle_frac", median(idle), "ratio")
	sec("exp.sink_s", spanSink)
	sec("exp.compare_s", spanCompare)
	put(m, "fanout.first_record_s", median(first), "s")
	put(m, "fanout.worker_s_max", median(workerMax), "s")
	put(m, "fanout.supervise_s", median(supervise), "s")
	put(m, "fanout.retries", median(retries), "count")
	put(m, "proc.cpu_s", median(cpu), "s")
	put(m, "proc.gc_cycles", median(gcs), "count")
	put(m, "proc.gc_pause_ms", median(pauses), "ms")
	put(m, "proc.alloc_mb", median(allocs), "MiB")
	put(m, "proc.mallocs", median(mallocs), "count")
	pct, tailValue := tail(walls)
	put(m, "pass_s_tail", tailValue, "s")
	put(m, "pass_s_tail_pct", pct, "%")
	put(m, "pass_samples", float64(len(walls)), "count")
	put(m, "trace.pass_s", median(tracedWalls), "s")
	put(m, "trace.overhead_frac", median(tracedWalls)/median(compWalls)-1, "ratio")
	put(m, "trace.coverage_frac", median(coverage), "ratio")
	return nil
}
