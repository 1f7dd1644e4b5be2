package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"qdc/internal/exp"
	"qdc/internal/fanout"
)

// inprocWorker adapts an in-process function to fanout.Worker — the CLI
// test seam that replaces re-executing the binary.
type inprocWorker struct {
	done chan struct{}
	err  error
}

func startInproc(fn func() error) *inprocWorker {
	w := &inprocWorker{done: make(chan struct{})}
	go func() {
		w.err = fn()
		close(w.done)
	}()
	return w
}

func (w *inprocWorker) Wait() error {
	<-w.done
	return w.err
}

func (w *inprocWorker) Kill()          {}
func (w *inprocWorker) Output() string { return "" }

// inprocSpawn runs a worker in-process: the exact argv the parent would
// exec, routed through run().
func inprocSpawn(_, _ int, args []string) (fanout.Worker, error) {
	return startInproc(func() error { return run(args, io.Discard) }), nil
}

// argValue returns the value following name in a worker argv.
func argValue(args []string, name string) string {
	for i := 0; i+1 < len(args); i++ {
		if args[i] == name {
			return args[i+1]
		}
	}
	return ""
}

func withTestSpawn(t *testing.T, spawn func(shard, attempt int, args []string) (fanout.Worker, error)) {
	t.Helper()
	testSpawn = spawn
	t.Cleanup(func() { testSpawn = nil })
}

// TestWorkerSpawnArgv pins the worker invocation fanout and serve share:
// the frozen spec, the shard slice, the stream path and the forwarded
// per-scenario budget, plus -workers only when one was given.
func TestWorkerSpawnArgv(t *testing.T) {
	var got []string
	withTestSpawn(t, func(_, _ int, args []string) (fanout.Worker, error) {
		got = args
		return startInproc(func() error { return nil }), nil
	})
	for _, tc := range []struct {
		workers int
		want    []string
	}{
		{0, []string{"-matrix", "frozen.json", "-shard", "2/4", "-jsonl", "s.jsonl", "-timeout", "1m30s"}},
		{3, []string{"-matrix", "frozen.json", "-shard", "2/4", "-jsonl", "s.jsonl", "-timeout", "1m30s", "-workers", "3"}},
	} {
		spawnFor, err := workerSpawn(tc.workers, 90*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := spawnFor("frozen.json", 4)(2, 1, "s.jsonl"); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("workers=%d: argv %q, want %q", tc.workers, got, tc.want)
		}
	}
}

// TestFanoutMatchesUnsharded is the acceptance gate at CLI level: a
// supervised 3-shard fanout of the quick matrix must produce a snapshot
// byte-identical to the unsharded -json run. It also pins the event
// contract perfbench reads the supervisor's timings from: every shard logs
// a worker_start before its worker_done, and every scenario event names
// its shard.
func TestFanoutMatchesUnsharded(t *testing.T) {
	dir := t.TempDir()
	unsharded := filepath.Join(dir, "unsharded.json")
	fanned := filepath.Join(dir, "fanned.json")
	events := filepath.Join(dir, "events.jsonl")

	var out bytes.Buffer
	if err := run([]string{"-matrix", "quick", "-json", unsharded}, &out); err != nil {
		t.Fatalf("unsharded run: %v", err)
	}
	withTestSpawn(t, inprocSpawn)
	if err := run([]string{"fanout", "-shards", "3", "-matrix", "quick", "-json", fanned, "-events", events}, &out); err != nil {
		t.Fatalf("fanout: %v\n%s", err, out.String())
	}

	want, err := os.ReadFile(unsharded)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(fanned)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("fanout snapshot is not byte-identical to the unsharded run")
	}
	log, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	started := map[float64]bool{}
	done := map[float64]bool{}
	scenarios := 0
	for i, line := range strings.Split(strings.TrimSpace(string(log)), "\n") {
		var ev struct {
			Kind string         `json:"event"`
			Data map[string]any `json:"data"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event line %d not JSON: %v", i, err)
		}
		shard, hasShard := ev.Data["shard"].(float64)
		switch ev.Kind {
		case "worker_start":
			started[shard] = true
		case "worker_done":
			if !started[shard] {
				t.Errorf("shard %v logged worker_done before any worker_start", shard)
			}
			done[shard] = true
		case "scenario":
			scenarios++
			if !hasShard {
				t.Errorf("scenario event without a shard: %s", line)
			}
		}
	}
	for shard := 1.0; shard <= 3; shard++ {
		if !done[shard] {
			t.Errorf("event log has no worker_done for shard %v", shard)
		}
	}
	if m, _ := exp.LookupMatrix("quick"); scenarios != len(m.Expand()) {
		t.Errorf("event log has %d scenario events, want %d", scenarios, len(m.Expand()))
	}
	if !strings.Contains(out.String(), "fanout matrix quick: 3 shards") {
		t.Errorf("summary missing from output:\n%s", out.String())
	}
}

// TestFanoutRetriesCrashedWorker kills one shard's first attempt mid-record
// and checks the supervision loop retries it, the sweep completes, and the
// merged snapshot still matches the unsharded run byte for byte.
func TestFanoutRetriesCrashedWorker(t *testing.T) {
	dir := t.TempDir()
	streams := filepath.Join(dir, "streams")
	unsharded := filepath.Join(dir, "unsharded.json")
	fanned := filepath.Join(dir, "fanned.json")
	events := filepath.Join(dir, "events.jsonl")

	var out bytes.Buffer
	if err := run([]string{"-matrix", "quick", "-json", unsharded}, &out); err != nil {
		t.Fatal(err)
	}
	withTestSpawn(t, func(shard, attempt int, args []string) (fanout.Worker, error) {
		if shard == 2 && attempt == 1 {
			return startInproc(func() error {
				// A record cut off mid-line, then a crash.
				if err := os.WriteFile(argValue(args, "-jsonl"), []byte(`{"scenario":{"name":"qu`), 0o644); err != nil {
					return err
				}
				return errors.New("exit status 2")
			}), nil
		}
		return inprocSpawn(shard, attempt, args)
	})
	if err := run([]string{"fanout", "-shards", "3", "-matrix", "quick", "-json", fanned, "-events", events, "-dir", streams}, &out); err != nil {
		t.Fatalf("fanout with one crash: %v\n%s", err, out.String())
	}

	want, _ := os.ReadFile(unsharded)
	got, _ := os.ReadFile(fanned)
	if !bytes.Equal(got, want) {
		t.Error("snapshot after a crash-and-retry is not byte-identical to the unsharded run")
	}
	log, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(log), `"event":"worker_retry"`) {
		t.Error("event log has no worker_retry for the crashed shard")
	}
	if !strings.Contains(out.String(), "2 attempt(s)") {
		t.Errorf("per-shard summary does not show the retry:\n%s", out.String())
	}
	// An explicit -dir keeps the shard streams, including the dead attempt's.
	if _, err := os.Stat(filepath.Join(streams, "shard-2-attempt-1.jsonl")); err != nil {
		t.Errorf("crashed attempt's stream not kept under -dir: %v", err)
	}
}

// TestFanoutFailureNamesDeadShards: with retries exhausted the sweep fails
// and the error says which shard died and why.
func TestFanoutFailureNamesDeadShards(t *testing.T) {
	withTestSpawn(t, func(shard, attempt int, args []string) (fanout.Worker, error) {
		if shard == 2 {
			return startInproc(func() error { return errors.New("exit status 2") }), nil
		}
		return inprocSpawn(shard, attempt, args)
	})
	// Without -dir the failed sweep keeps its streams in a fresh temp dir;
	// it lands under the test's own.
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	var out bytes.Buffer
	err := run([]string{"fanout", "-shards", "2", "-matrix", "quick", "-retries", "1"}, &out)
	if err == nil {
		t.Fatal("a dead shard must fail the sweep")
	}
	for _, want := range []string{"1 of 2 shards failed", "shard 2 (2 attempts)", "exit status 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	_, kept, ok := strings.Cut(out.String(), "shard streams kept in ")
	kept, _, _ = strings.Cut(kept, "\n")
	if !ok || filepath.Dir(kept) != tmp {
		t.Fatalf("output names no kept stream dir under %s:\n%s", tmp, out.String())
	}
	if _, err := os.Stat(filepath.Join(kept, "shard-1-attempt-1.jsonl")); err != nil {
		t.Errorf("kept stream dir lost the completed shard's stream: %v", err)
	}
}

// TestFanoutFlagValidation pins the argument contract.
func TestFanoutFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"fanout"}, &out); err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Errorf("missing -shards: err = %v", err)
	}
	if err := run([]string{"fanout", "-shards", "2", "-matrix", "no-such-matrix"}, &out); err == nil {
		t.Error("unknown matrix must error")
	}
	if err := run([]string{"fanout", "-shards", "2", "stray"}, &out); err == nil || !strings.Contains(err.Error(), "positional") {
		t.Errorf("stray positional arg: err = %v", err)
	}
	huge := []string{"fanout", "-shards", "4611686018427387904", "-matrix", "quick", "-dir", t.TempDir()}
	if err := run(huge, &out); err == nil || !strings.Contains(err.Error(), "at most one shard per scenario") {
		t.Errorf("more shards than scenarios: err = %v", err)
	}
}

// TestFanoutReusedDirMatchesFresh re-runs a fanout in a -dir still holding
// the previous sweep's complete streams — the stale-stream race. The second
// sweep runs a different seed, so any stale record the supervisor mistook
// for fresh output would poison the merge; the snapshot must match a clean
// unsharded run of the second sweep exactly.
func TestFanoutReusedDirMatchesFresh(t *testing.T) {
	dir := t.TempDir()
	streams := filepath.Join(dir, "streams")
	unsharded := filepath.Join(dir, "unsharded.json")
	fanned := filepath.Join(dir, "fanned.json")

	// Workers run the argv real ones get, so they read the frozen spec and
	// the parent's -seed reaches them.
	var out bytes.Buffer
	withTestSpawn(t, inprocSpawn)
	if err := run([]string{"fanout", "-shards", "2", "-matrix", "quick", "-seed", "99", "-dir", streams}, &out); err != nil {
		t.Fatalf("first sweep: %v\n%s", err, out.String())
	}
	// Same dir, different seed: every stale stream is wrong for this sweep.
	if err := run([]string{"fanout", "-shards", "2", "-matrix", "quick", "-json", fanned, "-dir", streams}, &out); err != nil {
		t.Fatalf("second sweep in the reused dir: %v\n%s", err, out.String())
	}
	if err := run([]string{"-matrix", "quick", "-json", unsharded}, &out); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(unsharded)
	got, _ := os.ReadFile(fanned)
	if !bytes.Equal(got, want) {
		t.Error("snapshot from the reused -dir is not byte-identical to a fresh unsharded run")
	}
}

// TestFanoutFrozenSpecSurvivesEdit pins the frozen-spec rule: a *.json
// -matrix file rewritten mid-sweep (here between a crashing first attempt
// and its retry) must not change what the workers run. Workers read the
// frozen copy under the stream dir, so the snapshot still matches an
// unsharded run of the spec as it was at launch.
func TestFanoutFrozenSpecSurvivesEdit(t *testing.T) {
	dir := t.TempDir()
	streams := filepath.Join(dir, "streams")
	spec := filepath.Join(dir, "spec.json")
	unsharded := filepath.Join(dir, "unsharded.json")
	fanned := filepath.Join(dir, "fanned.json")

	const original = `{
  "name": "frozen",
  "topologies": [{"family": "path", "size": 9}, {"family": "star", "size": 9}],
  "bandwidths": [32],
  "backends": ["local"],
  "algorithms": ["verify"],
  "base_seed": 3
}`
	if err := os.WriteFile(spec, []byte(original), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-matrix", spec, "-json", unsharded}, &out); err != nil {
		t.Fatalf("unsharded reference: %v", err)
	}

	withTestSpawn(t, func(shard, attempt int, args []string) (fanout.Worker, error) {
		if shard == 1 && attempt == 1 {
			return startInproc(func() error {
				// The sweep's spec file is rewritten under the supervisor: a
				// different seed, a different sweep. Then the worker crashes,
				// so the retry is what would re-read the spec.
				edited := strings.Replace(original, `"base_seed": 3`, `"base_seed": 77`, 1)
				if err := os.WriteFile(spec, []byte(edited), 0o644); err != nil {
					return err
				}
				return errors.New("exit status 2")
			}), nil
		}
		return inprocSpawn(shard, attempt, args)
	})
	if err := run([]string{"fanout", "-shards", "2", "-matrix", spec, "-json", fanned, "-dir", streams}, &out); err != nil {
		t.Fatalf("fanout across the spec edit: %v\n%s", err, out.String())
	}

	want, _ := os.ReadFile(unsharded)
	got, _ := os.ReadFile(fanned)
	if !bytes.Equal(got, want) {
		t.Error("snapshot does not match the spec as launched; the edit leaked into a worker")
	}
}
