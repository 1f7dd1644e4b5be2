// Command qdcbench drives the repository's experiments from the command
// line, in three modes: matrix sweeps, sweep-scale-out subcommands, and
// paper tables.
//
// Matrix mode runs a scenario matrix through the internal/exp worker pool
// and writes machine-readable results, the pipeline BENCH_*.json snapshots
// are produced with. -matrix accepts a registered name or a path to a JSON
// matrix spec (see examples/matrix.json), so sweeps are defined without
// recompiling:
//
//	qdcbench -matrix default -workers 8 -json BENCH_default.json
//	qdcbench -matrix examples/matrix.json -jsonl run.jsonl
//	qdcbench -matrix default -json new.json -baseline BENCH_default.json
//	qdcbench -matrix crossover -backends local,quantum
//	qdcbench -list
//
// With -baseline the run is diffed against an earlier results file and any
// regression — a newly failing scenario, more rounds/bits on the same
// deterministic scenario, or a scenario that vanished from the new run —
// makes the command exit non-zero; -allow-removed accepts removals for
// intentional matrix shrinks. -backends restricts an expanded matrix to a
// comma-separated backend subset. After every matrix run the summary breaks
// the scenarios down per backend, and when the run contains
// classical/quantum disjointness pairs it prints the measured crossover
// table of Example 1.1 next to the predicted crossover diameter. The
// -slowest table's wall times and node-rounds/sec are host measurements that
// never enter a snapshot; wall time, throughput and heap are measured by the
// repository benchmark under perfbench/, whose flood-grid workload times
// the n=102400 flood cell of the roundbench matrix.
//
// Scale-out mode fans one sweep out across processes or machines and folds
// the results back together. -shard i/n runs the i-th of n deterministic,
// disjoint slices of the expansion, and the merge subcommand rebuilds the
// canonical snapshot — byte-identical to an unsharded -json run of the same
// matrix, which is what makes the fan-out trustworthy. The trend subcommand
// reads a directory of BENCH_*.json snapshots and prints every scenario's
// rounds/bits trajectory plus the snapshots it first appeared and was last
// seen in, turning the single old-vs-new diff into multi-PR drift
// visibility:
//
//	qdcbench -matrix quick -shard 1/2 -jsonl s1.jsonl
//	qdcbench -matrix quick -shard 2/2 -jsonl s2.jsonl
//	qdcbench merge -matrix quick -json merged.json s1.jsonl s2.jsonl
//	qdcbench trend -dir snapshots/
//
// The fanout subcommand supervises the whole shard lifecycle itself: it
// re-invokes this binary once per shard, tails the worker JSONL streams
// live (feeding the same -progress/-listen/-events plumbing), retries
// crashed workers with capped backoff, and merges on completion — still
// byte-identical to the unsharded run:
//
//	qdcbench fanout -shards 4 -matrix default -json BENCH_default.json
//	qdcbench fanout -shards 3 -matrix quick -events events.jsonl -progress 30s
//
// The serve subcommand turns the fanout supervisor into qdcd, a
// long-running sweep control plane: an HTTP/JSON daemon that accepts matrix
// jobs (POST /jobs), runs each job's shard slices on a persistent bounded
// worker pool, streams records live (GET /jobs/{id}/records), and serves
// the canonical merged snapshot (GET /jobs/{id}/snapshot — byte-identical
// to an unsharded -json run) plus cross-job diffs (GET /jobs/{id}/diff).
// Jobs persist under -state: a restarted daemon re-adopts finished jobs and
// re-runs interrupted ones from their frozen specs. The submit subcommand
// is the matching client — it submits a sweep, optionally waits it out, and
// downloads the snapshot:
//
//	qdcbench serve -listen 127.0.0.1:8123 -state qdcd-state -pool 8
//	qdcbench submit -addr http://127.0.0.1:8123 -matrix quick -shards 2 -wait
//	qdcbench submit -matrix examples/matrix.json -shards 4 -json BENCH_default.json
//
// Observability rides along any matrix sweep without touching its results:
// -metrics collects a deterministic per-scenario metrics block (per-round
// message/bit/qubit histograms) that travels in the JSONL stream but is
// stripped from canonical -json snapshots, -events appends a JSONL event log
// of the sweep, -progress prints a heartbeat line for headless CI logs, and
// -listen serves live endpoints (net/http/pprof, /debug/vars, /vars,
// /progress) for the duration of the sweep plus an optional -linger window:
//
//	qdcbench -matrix default -metrics -jsonl run.jsonl -events events.jsonl
//	qdcbench -matrix default -progress 30s -listen :8123 -linger 1m
//	qdcbench trend -dir snapshots/ -json
//
// Table mode regenerates the paper's tables and figures as text: the
// Figure 2 bounds table, the Figure 3 MST curves, the server-model hardness
// table of Theorems 3.4/6.1, the Theorem 3.5 simulation accounting, and the
// Example 1.1 comparison.
//
//	qdcbench -figure 2        # the Figure 2 bounds table
//	qdcbench -figure 3        # the Figure 3 curves + measured MST runs
//	qdcbench -example 1.1     # Example 1.1 classical vs quantum Disjointness
//	qdcbench -experiment sim  # Theorem 3.5 three-party simulation accounting
//	qdcbench -all             # every table
//
// Every failure path exits with a non-zero status so CI smoke runs catch
// broken experiments instead of accepting partial tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"qdc"
	"qdc/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "qdcbench: %v\n", err)
		os.Exit(1)
	}
}

type config struct {
	// Matrix mode.
	matrix       string
	backends     string
	shard        string
	workers      int
	timeout      time.Duration
	jsonOut      string
	jsonlOut     string
	baseline     string
	allowRemoved bool
	seed         int64
	list         bool

	// Observability (matrix mode).
	metrics bool
	sweepFlags
	slowest int

	// Table mode.
	figure     int
	example    string
	experiment string
	all        bool
	n          int
	bandwidth  int
	alpha      float64
	aspect     float64
}

// run dispatches the subcommands (fanout, serve, submit, merge, trend) and
// the flag-driven matrix and table modes. All output goes to out so tests
// can capture it.
func run(args []string, out io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "fanout":
			return runFanout(args[1:], out)
		case "serve":
			return runServe(args[1:], out)
		case "submit":
			return runSubmit(args[1:], out)
		case "merge":
			return runMerge(args[1:], out)
		case "trend":
			return runTrend(args[1:], out)
		}
	}

	fs := flag.NewFlagSet("qdcbench", flag.ContinueOnError)
	var c config
	fs.StringVar(&c.matrix, "matrix", "", "run a scenario matrix: a registered name "+fmt.Sprint(exp.MatrixNames())+" or a *.json spec path")
	fs.StringVar(&c.backends, "backends", "", "restrict the matrix to these comma-separated backends (e.g. local,quantum)")
	fs.StringVar(&c.shard, "shard", "", "run only slice i/n of the matrix expansion (e.g. 1/2); merge the JSONL outputs with 'qdcbench merge'")
	fs.IntVar(&c.workers, "workers", 0, "concurrent scenario executions (0 = GOMAXPROCS)")
	fs.DurationVar(&c.timeout, "timeout", exp.DefaultTimeout, "per-scenario wall-clock budget")
	fs.StringVar(&c.jsonOut, "json", "", "write results as a canonical sorted JSON array to this file")
	fs.StringVar(&c.jsonlOut, "jsonl", "", "stream results as JSON lines to this file")
	fs.StringVar(&c.baseline, "baseline", "", "compare results against this earlier JSON/JSONL file")
	fs.BoolVar(&c.allowRemoved, "allow-removed", false, "accept scenarios missing from the new run when diffing against -baseline (intentional matrix shrinks)")
	fs.Int64Var(&c.seed, "seed", 0, "override the matrix base seed (0 keeps the spec's seed)")
	fs.BoolVar(&c.list, "list", false, "list the registered matrices and exit")
	fs.BoolVar(&c.metrics, "metrics", false, "collect per-scenario observability metrics (deterministic; stripped from canonical -json snapshots)")
	c.sweepFlags.register(fs, "sweep_start, one scenario event per record, sweep_done")
	fs.IntVar(&c.slowest, "slowest", 3, "list the K slowest scenarios by wall time in the matrix summary (0 disables)")
	fs.IntVar(&c.figure, "figure", 0, "regenerate a figure: 2 or 3")
	fs.StringVar(&c.example, "example", "", "regenerate an example: 1.1")
	fs.StringVar(&c.experiment, "experiment", "", "run an experiment: sim, server, verify, pipeline")
	fs.BoolVar(&c.all, "all", false, "regenerate every table")
	fs.IntVar(&c.n, "n", 100_000, "network size for the formula tables")
	fs.IntVar(&c.bandwidth, "B", 32, "per-edge bandwidth in bits per round")
	fs.Float64Var(&c.alpha, "alpha", 2, "approximation factor")
	fs.Float64Var(&c.aspect, "W", 1e5, "weight aspect ratio")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: the flag modes take no positional arguments", fs.Arg(0))
	}

	if c.list {
		for _, name := range exp.MatrixNames() {
			m, _ := exp.LookupMatrix(name)
			fmt.Fprintf(out, "%-10s %3d scenarios (%d topologies x %d algorithms x %d backends x %d bandwidths)\n",
				name, len(m.Expand()), len(m.Topologies), len(m.Algorithms), len(m.Backends), len(m.Bandwidths))
		}
		return nil
	}
	if c.matrix != "" {
		return runMatrix(c, out)
	}
	return runTables(c, fs, out)
}

func runMatrix(c config, out io.Writer) error {
	m, err := exp.ResolveMatrix(c.matrix)
	if err != nil {
		return err
	}
	if c.seed != 0 {
		m.BaseSeed = c.seed
	}
	var scenarios []exp.Scenario
	label := m.Name
	if c.shard == "" {
		scenarios = m.Expand()
	} else {
		if c.baseline != "" {
			return fmt.Errorf("-baseline cannot gate a single shard (removals would be spurious); merge the shards and diff the merged snapshot")
		}
		i, n, err := exp.ParseShard(c.shard)
		if err != nil {
			return err
		}
		if scenarios, err = m.Shard(i, n); err != nil {
			return err
		}
		label = fmt.Sprintf("%s shard %d/%d", m.Name, i, n)
	}
	if c.backends != "" {
		keep := make(map[string]bool)
		for _, b := range strings.Split(c.backends, ",") {
			keep[strings.TrimSpace(b)] = true
		}
		filtered := scenarios[:0]
		for _, s := range scenarios {
			if keep[s.Backend] {
				filtered = append(filtered, s)
			}
		}
		scenarios = filtered
	}
	// An empty shard slice is valid — a fan-out wider than the expansion
	// must still produce (empty) output files for merge to collect — but an
	// unsharded run with nothing to do is a spec mistake.
	if len(scenarios) == 0 && c.shard == "" {
		if c.backends != "" {
			return fmt.Errorf("matrix %s has no scenarios on backends %q", m.Name, c.backends)
		}
		return fmt.Errorf("matrix %s has no scenarios to run", m.Name)
	}

	collect := &exp.Collect{}
	sinks := []exp.Sink{collect}
	if c.jsonOut != "" {
		s, err := exp.CreateJSON(c.jsonOut)
		if err != nil {
			return err
		}
		sinks = append(sinks, s)
	}
	if c.jsonlOut != "" {
		s, err := exp.CreateJSONL(c.jsonlOut)
		if err != nil {
			return err
		}
		sinks = append(sinks, s)
	}

	sw, err := c.sweepFlags.start(out, len(scenarios), map[string]any{"matrix": label, "scenarios": len(scenarios)})
	if err != nil {
		return err
	}
	if sw.log != nil {
		sinks = append(sinks, exp.NewEventSink(sw.log))
	}
	sum, err := exp.Execute(scenarios, exp.ExecOptions{Workers: c.workers, Timeout: c.timeout, Metrics: c.metrics, Status: sw.status}, sinks...)
	sw.stopHeartbeat()
	for _, s := range sinks {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err := sw.finish(map[string]any{
		"scenarios": sum.Scenarios, "passed": sum.Passed, "failed": sum.Failed, "wall_ms": sum.WallMillis,
	}, err); err != nil {
		return err
	}

	fmt.Fprintf(out, "matrix %s: %d scenarios, %d passed, %d failed (%d errors) in %.0f ms\n",
		label, sum.Scenarios, sum.Passed, sum.Failed, sum.Errors, sum.WallMillis)
	printBackendBreakdown(out, collect.Records)
	printSlowest(out, collect.Records, c.slowest)
	for _, r := range collect.Records {
		if r.Failed() {
			fmt.Fprintf(out, "  FAIL %-40s %s%s\n", r.Scenario.Name, r.Error, r.Detail)
		}
	}
	printCrossover(out, collect.Records)

	if c.baseline != "" {
		old, err := exp.ReadRecords(c.baseline)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		diff := exp.Compare(old, collect.Records)
		for _, d := range diff.Regressions {
			fmt.Fprintf(out, "  REGRESSION %s\n", d)
		}
		for _, d := range diff.Improvements {
			fmt.Fprintf(out, "  improvement %s\n", d)
		}
		if len(diff.Added) > 0 {
			fmt.Fprintf(out, "  added: %v\n", diff.Added)
		}
		for _, name := range diff.Removed {
			fmt.Fprintf(out, "  REMOVED %s\n", name)
		}
		for _, name := range diff.DuplicateOld {
			fmt.Fprintf(out, "  DUPLICATE in baseline: %s\n", name)
		}
		for _, name := range diff.DuplicateNew {
			fmt.Fprintf(out, "  DUPLICATE in new run: %s\n", name)
		}
		switch {
		case len(diff.DuplicateOld) > 0 || len(diff.DuplicateNew) > 0:
			// A duplicated scenario name means the comparison itself is
			// unreliable (an arbitrary copy was diffed), not that one
			// scenario regressed — refuse the gate outright.
			return fmt.Errorf("duplicate scenario names make the diff against %s unreliable (%d in baseline, %d in new run)",
				c.baseline, len(diff.DuplicateOld), len(diff.DuplicateNew))
		case len(diff.Regressions) > 0:
			return fmt.Errorf("%d regressions against %s", len(diff.Regressions), c.baseline)
		case !diff.Clean() && !c.allowRemoved:
			return fmt.Errorf("%d scenarios removed since %s (pass -allow-removed if the matrix shrank on purpose)",
				len(diff.Removed), c.baseline)
		case !diff.Clean():
			fmt.Fprintf(out, "  accepting %d removals (-allow-removed)\n", len(diff.Removed))
		}
	}
	if sum.Failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", sum.Failed, sum.Scenarios)
	}
	return nil
}

// runMerge folds shard result files (JSONL or JSON) into the canonical
// sorted-JSON snapshot an unsharded -json run would have produced.
func runMerge(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qdcbench merge", flag.ContinueOnError)
	jsonOut := fs.String("json", "", "write the merged canonical snapshot to this file (default: stdout)")
	matrix := fs.String("matrix", "", "verify the merged records cover this matrix exactly (name or *.json path)")
	seed := fs.Int64("seed", 0, "the -seed the shards were run with, so the -matrix check expects the same scenarios (0 = the spec's seed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	shardFiles := fs.Args()
	if len(shardFiles) == 0 {
		return fmt.Errorf("merge needs at least one shard results file (qdcbench merge -json out.json s1.jsonl s2.jsonl)")
	}
	sets := make([][]exp.Record, 0, len(shardFiles))
	for _, path := range shardFiles {
		recs, err := exp.ReadRecords(path)
		if err != nil {
			return err
		}
		sets = append(sets, recs)
	}
	merged, err := exp.MergeRecords(sets...)
	if err != nil {
		return err
	}
	if *matrix != "" {
		m, err := exp.ResolveMatrix(*matrix)
		if err != nil {
			return err
		}
		if *seed != 0 {
			m.BaseSeed = *seed
		}
		if err := exp.CheckComplete(m, merged); err != nil {
			return err
		}
	}
	if *jsonOut == "" {
		sink := exp.NewJSONSink(out)
		for _, r := range merged {
			sink.Write(r) //nolint:errcheck // JSONSink.Write only buffers
		}
		return sink.Close()
	}
	if err := exp.WriteSnapshot(*jsonOut, merged); err != nil {
		return err
	}
	fmt.Fprintf(out, "merged %d records from %d shards into %s\n", len(merged), len(shardFiles), *jsonOut)
	return nil
}

// runTrend prints the per-scenario cost trajectories across a directory of
// BENCH_*.json snapshots.
func runTrend(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qdcbench trend", flag.ContinueOnError)
	dir := fs.String("dir", ".", "directory holding BENCH_*.json snapshots")
	changedOnly := fs.Bool("changed", false, "only print scenarios whose rounds or bits moved")
	asJSON := fs.Bool("json", false, "emit the report as JSON (snapshots, per-scenario trajectories, vanished list) instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("trend takes no positional arguments (use -dir)")
	}
	rep, err := exp.Trend(*dir)
	if err != nil {
		return err
	}
	if *asJSON {
		// An explicit wrapper: the vanished set is a method on TrendReport,
		// and machine consumers should not have to re-derive it.
		payload := struct {
			Snapshots []string            `json:"snapshots"`
			Scenarios []exp.ScenarioTrend `json:"scenarios"`
			Vanished  []string            `json:"vanished,omitempty"`
		}{Snapshots: rep.Snapshots, Scenarios: rep.Scenarios, Vanished: rep.Vanished()}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(payload)
	}
	fmt.Fprintf(out, "trend over %d snapshots (%s .. %s): %d scenarios\n",
		len(rep.Snapshots), rep.Snapshots[0], rep.Snapshots[len(rep.Snapshots)-1], len(rep.Scenarios))
	fmt.Fprintf(out, "  %-44s %7s %7s  %-24s %s\n", "scenario", "first", "last", "rounds", "bits")
	newest := rep.Snapshots[len(rep.Snapshots)-1]
	shown := 0
	for _, s := range rep.Scenarios {
		if *changedOnly && !s.Changed() && s.Last == newest && len(s.Missing) == 0 {
			continue
		}
		shown++
		gap := ""
		if len(s.Missing) > 0 {
			marks := make([]string, len(s.Missing))
			for i, label := range s.Missing {
				marks[i] = snapshotOrdinal(rep.Snapshots, label)
			}
			gap = "  GAP at " + strings.Join(marks, ",")
		}
		fmt.Fprintf(out, "  %-44s %7s %7s  %-24s %s%s\n",
			s.Name, snapshotOrdinal(rep.Snapshots, s.First), snapshotOrdinal(rep.Snapshots, s.Last),
			trajectory(s.Points, func(p exp.TrendPoint) int64 { return int64(p.Rounds) }),
			trajectory(s.Points, func(p exp.TrendPoint) int64 { return p.Bits }), gap)
	}
	if *changedOnly {
		fmt.Fprintf(out, "  (%d of %d scenarios moved or vanished)\n", shown, len(rep.Scenarios))
	}
	if vanished := rep.Vanished(); len(vanished) > 0 {
		fmt.Fprintf(out, "  VANISHED (absent from %s): %v\n", newest, vanished)
	}
	return nil
}

// snapshotOrdinal renders a snapshot label as its position in the
// trajectory, e.g. "#1" for the oldest — full file names are listed once in
// the header line and would swamp the per-scenario table.
func snapshotOrdinal(snapshots []string, label string) string {
	for i, s := range snapshots {
		if s == label {
			return fmt.Sprintf("#%d", i+1)
		}
	}
	return "?"
}

// trajectory renders a cost series compactly: a single value with a
// repetition count when the series never moves ("26 (x3)"), the full
// arrow-joined series otherwise ("26>30>28"). Failed points are marked "!".
func trajectory(points []exp.TrendPoint, val func(exp.TrendPoint) int64) string {
	if len(points) == 0 {
		return "-"
	}
	flat := true
	anyFailed := false
	for _, p := range points {
		if val(p) != val(points[0]) {
			flat = false
		}
		if p.Failed {
			anyFailed = true
		}
	}
	if flat && !anyFailed {
		if len(points) == 1 {
			return fmt.Sprint(val(points[0]))
		}
		return fmt.Sprintf("%d (x%d)", val(points[0]), len(points))
	}
	parts := make([]string, len(points))
	for i, p := range points {
		parts[i] = fmt.Sprint(val(p))
		if p.Failed {
			parts[i] += "!"
		}
	}
	return strings.Join(parts, ">")
}

// printSlowest lists the k scenarios that took the most wall time — the ones
// to shard, shrink or profile first when a sweep grows slow. Wall time is
// display-only (host-dependent, never part of a snapshot), so the table is
// advisory: ties break by name to keep the listing stable on a given host.
func printSlowest(out io.Writer, records []exp.Record, k int) {
	if k <= 0 || len(records) == 0 {
		return
	}
	sorted := append([]exp.Record(nil), records...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].WallMillis != sorted[j].WallMillis {
			return sorted[i].WallMillis > sorted[j].WallMillis
		}
		return sorted[i].Scenario.Name < sorted[j].Scenario.Name
	})
	if k > len(sorted) {
		k = len(sorted)
	}
	fmt.Fprintf(out, "  slowest %d scenarios by wall time:\n", k)
	for _, r := range sorted[:k] {
		fmt.Fprintf(out, "    %-44s %10.1f ms %14.0f node-rounds/sec\n",
			r.Scenario.Name, r.WallMillis, exp.NodeRoundsPerSec(r))
	}
}

// printBackendBreakdown rolls the records up into one row per backend so a
// mixed sweep shows at a glance how each cost model fared.
func printBackendBreakdown(out io.Writer, records []exp.Record) {
	type row struct {
		scenarios, passed int
		rounds            int
		bits, qubits      int64
	}
	rows := make(map[string]*row)
	var backends []string
	for _, r := range records {
		b := rows[r.Scenario.Backend]
		if b == nil {
			b = &row{}
			rows[r.Scenario.Backend] = b
			backends = append(backends, r.Scenario.Backend)
		}
		b.scenarios++
		if !r.Failed() {
			b.passed++
		}
		b.rounds += r.Stats.Rounds
		b.bits += r.Stats.Bits
		b.qubits += r.Stats.QuantumBits
	}
	sort.Strings(backends)
	fmt.Fprintf(out, "  %-12s %9s %7s %12s %14s %14s\n", "backend", "scenarios", "passed", "rounds", "bits", "qubits")
	for _, name := range backends {
		b := rows[name]
		fmt.Fprintf(out, "  %-12s %9d %7d %12d %14d %14d\n", name, b.scenarios, b.passed, b.rounds, b.bits, b.qubits)
	}
}

// printCrossover prints the measured Example 1.1 crossover table when the
// run paired classical and quantum disjointness scenarios.
func printCrossover(out io.Writer, records []exp.Record) {
	points := exp.CrossoverReport(records)
	if len(points) == 0 {
		return
	}
	fmt.Fprintln(out, "  classical vs quantum disjointness (Example 1.1):")
	fmt.Fprintf(out, "  %10s %6s %6s %12s %12s %10s %11s %7s\n",
		"B", "b", "D", "classical", "quantum", "winner", "predicted D*", "agree")
	for _, p := range points {
		note := ""
		if !p.Decisive {
			note = " (near crossover)"
		}
		fmt.Fprintf(out, "  %10d %6d %6d %12d %12d %10s %11d %7v%s\n",
			p.Bandwidth, p.InputBits, p.Distance, p.ClassicalRounds, p.QuantumRounds,
			p.MeasuredWinner, p.PredictedCrossover, p.Agree, note)
	}
	for _, s := range exp.MeasuredCrossovers(points) {
		measured := "none (quantum won every swept D)"
		if s.MeasuredCrossover > 0 {
			measured = fmt.Sprintf("D=%d", s.MeasuredCrossover)
		}
		fmt.Fprintf(out, "  B=%-4d b=%-5d measured crossover %s, predicted D*=%d over %d diameters\n",
			s.Bandwidth, s.InputBits, measured, s.PredictedCrossover, s.Points)
	}
}

func runTables(c config, fs *flag.FlagSet, out io.Writer) error {
	ran := false
	if c.all || c.figure == 2 {
		ran = true
		if err := printFigure2(out, c.n, c.bandwidth, c.aspect, c.alpha); err != nil {
			return err
		}
	}
	if c.all || c.figure == 3 {
		ran = true
		if err := printFigure3(out, c.n, c.bandwidth, c.alpha); err != nil {
			return err
		}
	}
	if c.all || c.example == "1.1" {
		ran = true
		if err := printExample11(out); err != nil {
			return err
		}
	}
	if c.all || c.experiment == "server" {
		ran = true
		printServerTable(out, 1200)
	}
	if c.all || c.experiment == "sim" {
		ran = true
		if err := printSimulation(out); err != nil {
			return err
		}
	}
	if c.all || c.experiment == "verify" {
		ran = true
		if err := printVerification(out); err != nil {
			return err
		}
	}
	if c.all || c.experiment == "pipeline" {
		ran = true
		if err := printPipeline(out); err != nil {
			return err
		}
	}
	if !ran {
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -matrix, -list, -figure, -example, -experiment, -all, or the merge/trend subcommands")
	}
	return nil
}

func printFigure2(out io.Writer, n, bandwidth int, aspect, alpha float64) error {
	rows, err := qdc.Figure2Table(n, bandwidth, aspect, alpha)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Figure 2 — lower bounds at n=%d, B=%d, W=%g, alpha=%g\n", n, bandwidth, aspect, alpha)
	fmt.Fprintf(out, "%-46s | %-30s | %14s | %14s\n", "problem", "setting", "previous", "this paper")
	for _, r := range rows {
		fmt.Fprintf(out, "%-46s | %-30s | %14.1f | %14.1f\n", r.Problem, r.Setting, r.PreviousValue, r.NewValue)
	}
	fmt.Fprintln(out)
	return nil
}

func printFigure3(out io.Writer, n, bandwidth int, alpha float64) error {
	ws := []float64{2, 16, 128, 1024, 8192, 1 << 16, 1 << 20}
	pts, err := qdc.Figure3Curve(n, bandwidth, 17, alpha, ws)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Figure 3 — MST rounds vs aspect ratio W (n=%d, B=%d, alpha=%g)\n", n, bandwidth, alpha)
	fmt.Fprintf(out, "%12s %20s %20s\n", "W", "lower bound", "upper bound")
	for _, p := range pts {
		fmt.Fprintf(out, "%12.0f %20.1f %20.1f\n", p.W, p.LowerBound, p.UpperBound)
	}
	fmt.Fprintln(out, "measured (lower-bound network family, Γ=8, L=17, B=128):")
	fmt.Fprintf(out, "%12s %12s %14s %14s %12s\n", "W", "nodes", "exact rounds", "approx rounds", "ratio")
	for _, w := range []float64{4, 64, 1024} {
		res, err := qdc.RunMSTExperiment(8, 17, 128, w, alpha, 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%12.0f %12d %14d %14d %12.3f\n", w, res.Nodes, res.ExactRounds, res.ApproxRounds, res.ApproxRatio)
	}
	fmt.Fprintln(out)
	return nil
}

func printExample11(out io.Writer) error {
	fmt.Fprintln(out, "Example 1.1 — distributed Set Disjointness, classical vs quantum (b=4096, B=1)")
	fmt.Fprintf(out, "%10s %18s %18s %10s %14s\n", "D", "classical rounds", "quantum rounds", "winner", "crossover D*")
	for _, d := range []int{2, 8, 32, 128, 512, 2048} {
		cmp, err := qdc.RunDisjointnessComparison(4096, 1, d, 1)
		if err != nil {
			return err
		}
		w := "classical"
		if cmp.QuantumWins {
			w = "quantum"
		}
		fmt.Fprintf(out, "%10d %18d %18d %10s %14.0f\n", d, cmp.ClassicalRounds, cmp.QuantumRounds, w, cmp.CrossoverDiameter)
	}
	fmt.Fprintln(out)
	return nil
}

func printServerTable(out io.Writer, n int) {
	fmt.Fprintf(out, "Server-model bounds (Theorems 3.4/6.1, Corollary 3.10) at n=%d\n", n)
	fmt.Fprintf(out, "%-40s %16s %16s %s\n", "problem", "lower bound", "trivial cost", "best known upper")
	for _, r := range qdc.ServerModelTable(n) {
		fmt.Fprintf(out, "%-40s %16.1f %16.1f %s\n", r.Problem, r.LowerBound, r.TrivialCost, r.BestKnownUpper)
	}
	fmt.Fprintln(out)
}

func printSimulation(out io.Writer) error {
	rep, err := qdc.SimulationExperiment(8, 257, 64, 1)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "Theorem 3.5 — three-party simulation accounting (Γ=8, L=257, B=64)")
	fmt.Fprintf(out, "  rounds:            %d (within L/2-2 budget: %v)\n", rep.Rounds, rep.WithinRoundBudget)
	fmt.Fprintf(out, "  Carol bits:        %d\n", rep.CarolBits)
	fmt.Fprintf(out, "  David bits:        %d\n", rep.DavidBits)
	fmt.Fprintf(out, "  server-model cost: %d\n", rep.ServerModelCost)
	fmt.Fprintf(out, "  O(B log L * T):    %d (within bound: %v)\n", rep.TheoremBound, rep.WithinTheoremBound)
	fmt.Fprintln(out)
	return nil
}

func printVerification(out io.Writer) error {
	rows, err := qdc.RunVerificationExperiment(12, 17, 64, 1, 1)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "Corollary 3.7 — verification algorithms on the embedded Hamiltonian instance (Γ=12, L=17)")
	fmt.Fprintf(out, "%-34s %8s %10s %14s %14s\n", "problem", "answer", "rounds", "lower bound", "upper bound")
	for _, r := range rows {
		fmt.Fprintf(out, "%-34s %8v %10d %14.1f %14.1f\n", r.Problem, r.Answer, r.Rounds, r.LowerBound, r.UpperBound)
	}
	fmt.Fprintln(out)
	return nil
}

func printPipeline(out io.Writer) error {
	res, err := qdc.RunProofPipeline(4, 64, 1)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "Figure 1 — proof pipeline on a random IPmod3 instance (n=4)")
	fmt.Fprintf(out, "  IPmod3 value %d, gadget Hamiltonian %v, server bound %.1f bits\n",
		res.IPMod3Value, res.GadgetIsHamiltonian, res.ServerLowerBoundBits)
	fmt.Fprintf(out, "  network %d nodes diameter %d, embedding consistent %v\n",
		res.NetworkNodes, res.NetworkDiameter, res.EmbeddedMatchesGadget)
	fmt.Fprintf(out, "  simulation cost %d bits <= bound %d bits: %v\n",
		res.SimulationReport.ServerModelCost, res.SimulationReport.TheoremBound, res.SimulationReport.WithinTheoremBound)
	fmt.Fprintf(out, "  distributed lower bound %.1f rounds\n", res.DistributedLowerBound)
	fmt.Fprintln(out)
	return nil
}
