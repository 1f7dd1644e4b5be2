package fanout

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qdc/internal/exp"
)

// stubWorker is an in-process Worker: Wait blocks until the test (or Kill)
// finishes it.
type stubWorker struct {
	done   chan struct{}
	err    error
	once   sync.Once
	killed atomic.Bool
	output string
}

func newStubWorker() *stubWorker { return &stubWorker{done: make(chan struct{})} }

func (w *stubWorker) finish(err error) {
	w.once.Do(func() {
		w.err = err
		close(w.done)
	})
}

func (w *stubWorker) Wait() error {
	<-w.done
	return w.err
}

func (w *stubWorker) Kill() {
	w.killed.Store(true)
	w.finish(errors.New("killed"))
}

func (w *stubWorker) Output() string { return w.output }

// writeLines appends complete JSONL record lines named names to path.
func writeLines(t *testing.T, path string, names ...string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, name := range names {
		r := exp.Record{OK: true}
		r.Scenario.Name = name
		line, _ := json.Marshal(r)
		if _, err := f.Write(append(line, '\n')); err != nil {
			t.Fatal(err)
		}
	}
}

// eventRecorder collects OnEvent calls from concurrent shard goroutines.
type eventRecorder struct {
	mu     sync.Mutex
	events []string // "kind shard=N"
}

func (e *eventRecorder) record(kind string, data map[string]any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.events = append(e.events, fmt.Sprintf("%s shard=%v", kind, data["shard"]))
}

func (e *eventRecorder) count(prefix string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, ev := range e.events {
		if strings.HasPrefix(ev, prefix) {
			n++
		}
	}
	return n
}

// baseOptions returns fast-retry Options over a temp dir with the given
// spawn; tests adjust the rest and hand run the expected record counts.
func baseOptions(t *testing.T, shards int, spawn SpawnFunc) Options {
	t.Helper()
	return Options{
		Shards:     shards,
		Retries:    2,
		Backoff:    time.Millisecond,
		MaxBackoff: 2 * time.Millisecond,
		Dir:        t.TempDir(),
		Spawn:      spawn,
	}
}

// TestCrashRetrySuccess is the core supervision contract: a worker that
// dies mid-shard has its partial records discarded and is re-spawned, and
// the sweep still completes with every shard's full record set.
func TestCrashRetrySuccess(t *testing.T) {
	var shard2Attempts atomic.Int32
	spawn := func(shard, attempt int, path string) (Worker, error) {
		w := newStubWorker()
		switch {
		case shard == 2 && attempt == 1:
			shard2Attempts.Add(1)
			// One complete record, half of a second, then a crash.
			writeLines(t, path, "s2-a")
			f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			f.WriteString(`{"scenario":{"name":"s2-`)
			f.Close()
			w.finish(errors.New("exit status 2"))
		case shard == 2:
			shard2Attempts.Add(1)
			writeLines(t, path, "s2-a", "s2-b")
			w.finish(nil)
		default:
			writeLines(t, path, "s1-a", "s1-b")
			w.finish(nil)
		}
		return w, nil
	}

	var ev eventRecorder
	var discardMu sync.Mutex
	discarded := map[int]int{}
	opts := baseOptions(t, 2, spawn)
	opts.OnEvent = ev.record
	opts.OnDiscard = func(shard int, recs []exp.Record) {
		discardMu.Lock()
		defer discardMu.Unlock()
		discarded[shard] += len(recs)
	}
	res, err := run(opts, []int{2, 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := shard2Attempts.Load(); got != 2 {
		t.Errorf("shard 2 ran %d attempts, want 2", got)
	}
	if res.Shards[1].Attempts != 2 || res.Shards[1].Err != nil {
		t.Errorf("shard 2 status: %+v", res.Shards[1])
	}
	if len(res.Shards[1].Records) != 2 {
		t.Errorf("shard 2 completed with %d records, want 2", len(res.Shards[1].Records))
	}
	if discarded[2] != 1 {
		t.Errorf("discarded %v, want exactly the 1 record streamed before the crash of shard 2", discarded)
	}
	if ev.count("worker_retry shard=2") != 1 || ev.count("worker_done shard=1") != 1 || ev.count("worker_done shard=2") != 1 {
		t.Errorf("events: %v", ev.events)
	}
}

// TestRetriesExhausted pins the partial-failure report: a shard that never
// completes fails the run with an error naming the shard and the reason,
// after exactly 1 + Retries attempts.
func TestRetriesExhausted(t *testing.T) {
	var attempts atomic.Int32
	spawn := func(shard, attempt int, path string) (Worker, error) {
		attempts.Add(1)
		w := newStubWorker()
		w.output = "flood: out of cheese"
		w.finish(errors.New("exit status 2"))
		return w, nil
	}
	var ev eventRecorder
	opts := baseOptions(t, 1, spawn)
	opts.Retries = 1
	opts.OnEvent = ev.record
	res, err := run(opts, []int{3})
	if err == nil {
		t.Fatal("expected a failure summary")
	}
	for _, want := range []string{"1 of 1 shards failed", "shard 1 (2 attempts)", "0 of 3 records", "exit status 2", "out of cheese"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("summary error %q does not mention %q", err, want)
		}
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("spawned %d attempts, want 1 + 1 retry", got)
	}
	if ev.count("worker_failed shard=1") != 1 || ev.count("worker_retry shard=1") != 1 {
		t.Errorf("events: %v", ev.events)
	}
	if res.Shards[0].Err == nil {
		t.Error("failed shard's status must carry its error")
	}
}

// TestEmptyShard: a fan-out wider than the expansion gives some workers
// zero scenarios; an empty (or never-created) stream with exit 0 completes.
func TestEmptyShard(t *testing.T) {
	spawn := func(shard, attempt int, path string) (Worker, error) {
		w := newStubWorker()
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Error(err)
		}
		w.finish(nil)
		return w, nil
	}
	var ev eventRecorder
	opts := baseOptions(t, 1, spawn)
	opts.OnEvent = ev.record
	res, err := run(opts, []int{0})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Shards[0].Attempts != 1 || len(res.Shards[0].Records) != 0 {
		t.Errorf("empty shard status: %+v", res.Shards[0])
	}
	if ev.count("worker_done shard=1") != 1 {
		t.Errorf("events: %v", ev.events)
	}
}

// TestNonZeroExitWithCompleteStream: the qdcbench worker exits 1 when
// scenarios fail, but a complete record stream means the shard completed —
// scenario failures are data, not a crash, and must not trigger retries.
func TestNonZeroExitWithCompleteStream(t *testing.T) {
	var attempts atomic.Int32
	spawn := func(shard, attempt int, path string) (Worker, error) {
		attempts.Add(1)
		w := newStubWorker()
		writeLines(t, path, "a", "b")
		w.finish(errors.New("exit status 1"))
		return w, nil
	}
	opts := baseOptions(t, 1, spawn)
	res, err := run(opts, []int{2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if attempts.Load() != 1 {
		t.Errorf("complete stream retried: %d attempts", attempts.Load())
	}
	if len(res.Shards[0].Records) != 2 {
		t.Errorf("records: %+v", res.Shards[0])
	}
}

// TestTimeoutKillsWorker: an attempt that outlives Options.Timeout is
// killed and counts as a crash (here with retries disabled, a failure).
func TestTimeoutKillsWorker(t *testing.T) {
	var worker *stubWorker
	spawn := func(shard, attempt int, path string) (Worker, error) {
		worker = newStubWorker() // never finishes on its own
		writeLines(t, path, "a")
		return worker, nil
	}
	opts := baseOptions(t, 1, spawn)
	opts.Retries = 0
	opts.Timeout = 80 * time.Millisecond
	_, err := run(opts, []int{2})
	if err == nil || !strings.Contains(err.Error(), "timeout after") {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if !worker.killed.Load() {
		t.Error("timed-out worker was not killed")
	}
}

// TestInterruptKillsAllWorkers: a signal on Options.Interrupt kills every
// live worker without retrying — the ctrl-C leaves-no-orphans contract.
func TestInterruptKillsAllWorkers(t *testing.T) {
	var mu sync.Mutex
	var workers []*stubWorker
	spawn := func(shard, attempt int, path string) (Worker, error) {
		w := newStubWorker() // blocks until killed
		mu.Lock()
		workers = append(workers, w)
		mu.Unlock()
		return w, nil
	}
	sig := make(chan os.Signal, 1)
	opts := baseOptions(t, 2, spawn)
	opts.Interrupt = sig

	go func() {
		for {
			mu.Lock()
			n := len(workers)
			mu.Unlock()
			if n == 2 {
				sig <- os.Interrupt
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	res, err := run(opts, []int{1, 1})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	for i, w := range workers {
		if !w.killed.Load() {
			t.Errorf("worker %d not killed on interrupt", i)
		}
	}
	for _, s := range res.Shards {
		if s.Attempts != 1 {
			t.Errorf("shard %d retried across an interrupt: %d attempts", s.Shard, s.Attempts)
		}
	}
}

// TestExecSpawnRealProcess exercises the non-stubbed path: a real /bin/sh
// worker writing a record, a crashing one whose captured output lands in
// the failure report, and a hung one killed by the attempt timeout.
func TestExecSpawnRealProcess(t *testing.T) {
	if _, err := os.Stat("/bin/sh"); err != nil {
		t.Skip("/bin/sh unavailable")
	}
	record := func(name string) string {
		r := exp.Record{OK: true}
		r.Scenario.Name = name
		line, _ := json.Marshal(r)
		return string(line)
	}

	t.Run("completes", func(t *testing.T) {
		spawn := ExecSpawn("/bin/sh", func(shard int, path string) []string {
			return []string{"-c", fmt.Sprintf("printf '%%s\\n' '%s' > %s", record("real"), path)}
		})
		res, err := run(baseOptions(t, 1, spawn), []int{1})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if len(res.Shards[0].Records) != 1 || res.Shards[0].Records[0].Scenario.Name != "real" {
			t.Errorf("records: %+v", res.Shards[0].Records)
		}
	})
	t.Run("crash output captured", func(t *testing.T) {
		spawn := ExecSpawn("/bin/sh", func(shard int, path string) []string {
			return []string{"-c", "echo kaboom >&2; exit 3"}
		})
		opts := baseOptions(t, 1, spawn)
		opts.Retries = 0
		_, err := run(opts, []int{1})
		if err == nil || !strings.Contains(err.Error(), "kaboom") || !strings.Contains(err.Error(), "exit status 3") {
			t.Fatalf("err = %v, want the worker's stderr and exit status", err)
		}
	})
	t.Run("timeout kills process group", func(t *testing.T) {
		spawn := ExecSpawn("/bin/sh", func(shard int, path string) []string {
			return []string{"-c", "sleep 30"}
		})
		opts := baseOptions(t, 1, spawn)
		opts.Retries = 0
		opts.Timeout = 100 * time.Millisecond
		start := time.Now()
		_, err := run(opts, []int{1})
		if err == nil || !strings.Contains(err.Error(), "timeout after") {
			t.Fatalf("err = %v, want a timeout", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("kill took %s; the sleep was not actually terminated", elapsed)
		}
	})
}

// TestStaleStreamRemovedBeforeSpawn is the stale-stream regression gate: a
// reused Dir holding a complete stream from a previous sweep must not be
// mistaken for this sweep's output. The supervisor removes the stale file
// before spawning, so the shard's records come from the fresh attempt —
// against the pre-fix runAttempt this test fails, with the tail racing
// ahead on the stale bytes and completing the shard with the wrong records.
func TestStaleStreamRemovedBeforeSpawn(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "shard-1-attempt-1.jsonl")
	writeLines(t, stale, "stale-a", "stale-b")

	spawn := func(shard, attempt int, path string) (Worker, error) {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("stale stream still present at spawn time: stat err = %v", err)
		}
		w := newStubWorker()
		writeLines(t, path, "fresh-a", "fresh-b")
		w.finish(nil)
		return w, nil
	}
	opts := baseOptions(t, 1, spawn)
	opts.Dir = dir
	res, err := run(opts, []int{2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	recs := res.Shards[0].Records
	if len(recs) != 2 || recs[0].Scenario.Name != "fresh-a" || recs[1].Scenario.Name != "fresh-b" {
		t.Errorf("records = %+v, want the fresh attempt's, not the stale file's", recs)
	}
}

// TestSweepMergesAndChecksShards: Sweep derives each shard's expected count
// from the frozen spec, folds the completed shards into the expansion's
// records in name order, refuses shards whose records came from a
// different sweep than the spec it loaded, and refuses more shards than
// the spec has scenarios before it spawns anything.
func TestSweepMergesAndChecksShards(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "matrix.json")
	m := exp.Matrix{
		Name:       "sweeptest",
		Topologies: []exp.TopologySpec{{Family: exp.FamilyPath, Size: 8}, {Family: exp.FamilyStar, Size: 9}},
		Bandwidths: []int{32},
		Backends:   []string{exp.BackendLocal},
		Algorithms: []string{exp.AlgFlood, exp.AlgVerify},
		BaseSeed:   7,
	}
	if err := exp.SaveMatrix(spec, m); err != nil {
		t.Fatal(err)
	}
	// spawnOf runs each shard's slice of ran, which may differ from the spec.
	spawnOf := func(ran exp.Matrix) SpawnFunc {
		return func(shard, attempt int, path string) (Worker, error) {
			slice, err := ran.Shard(shard, 3)
			if err != nil {
				return nil, err
			}
			sink, err := exp.CreateJSONL(path)
			if err != nil {
				return nil, err
			}
			for _, s := range slice {
				sink.Write(exp.RunScenario(s)) //nolint:errcheck // Close reports it
			}
			w := newStubWorker()
			w.finish(sink.Close())
			return w, nil
		}
	}

	merged, res, err := Sweep(spec, baseOptions(t, 3, spawnOf(m)))
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	var want []string
	for _, s := range m.Expand() {
		want = append(want, s.Name)
	}
	sort.Strings(want)
	var got []string
	for _, r := range merged {
		got = append(got, r.Scenario.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged %v, want %v", got, want)
	}
	if len(res.Shards) != 3 || len(res.Shards[0].Records) != 2 || len(res.Shards[2].Records) != 1 {
		t.Errorf("shard outcomes: %+v", res.Shards)
	}

	drifted := m
	drifted.BaseSeed = 8
	if _, _, err := Sweep(spec, baseOptions(t, 3, spawnOf(drifted))); err == nil || !strings.Contains(err.Error(), "differ from the expansion") {
		t.Errorf("shards of another seed: err = %v, want a CheckComplete mismatch", err)
	}
	if _, _, err := Sweep(spec+".missing", baseOptions(t, 3, spawnOf(m))); err == nil {
		t.Error("a missing spec must fail before any worker runs")
	}
	for _, shards := range []int{len(m.Expand()) + 1, 1 << 62} {
		_, _, err := Sweep(spec, baseOptions(t, shards, func(int, int, string) (Worker, error) {
			t.Fatal("a sweep with more shards than scenarios must fail before any worker runs")
			return nil, nil
		}))
		if err == nil || !strings.Contains(err.Error(), "at most one shard per scenario") {
			t.Errorf("%d shards for %d scenarios: err = %v", shards, len(m.Expand()), err)
		}
	}
}
