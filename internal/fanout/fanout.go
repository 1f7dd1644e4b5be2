// Package fanout runs a sharded sweep as one job: one worker per matrix
// shard, each re-running the qdcbench binary over its deterministic slice of
// the expansion and streaming records to a JSONL file the supervisor tails
// as lines complete. Robustness is the point of the package: a worker that
// crashes, exits non-zero before its stream is complete, or outlives the
// per-attempt timeout is killed (together with its whole process group) and
// re-spawned with capped exponential backoff up to Retries times; an
// interrupt kills every live worker so ctrl-C leaves no orphans; and the
// final error names exactly which shards died and why. The subprocess spawn
// is a seam (SpawnFunc) so tests drive the entire supervision tree with
// in-process stubs.
//
// Sweep is the package's one entry point and the one place shards are folded
// back together: it loads the frozen spec the workers read, derives every
// shard's expected record count from it, supervises the shards, and merges
// the completed record sets through exp.MergeRecords + exp.CheckComplete.
// Written as a canonical snapshot, the merged records are byte-identical to
// an unsharded run. `qdcbench fanout` and the qdcd daemon both run their
// sweeps through it.
package fanout

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qdc/internal/exp"
)

// Defaults for Options; see the field docs.
const (
	DefaultRetries    = 2
	DefaultBackoff    = 500 * time.Millisecond
	DefaultMaxBackoff = 5 * time.Second

	// pollInterval is how often a worker's JSONL stream is polled for newly
	// completed lines while the worker runs.
	pollInterval = 25 * time.Millisecond
)

// ErrInterrupted is returned by Sweep when Options.Interrupt delivered a
// signal: every live worker has been killed and no shard was retried.
var ErrInterrupted = errors.New("fanout: interrupted")

// Worker is one running shard attempt. Implementations wrap a subprocess
// (ExecSpawn) or an in-process stub (tests).
type Worker interface {
	// Wait blocks until the worker exits; nil means exit status 0. Called
	// exactly once.
	Wait() error
	// Kill forcibly terminates the worker — for subprocesses, its whole
	// process group, so grandchildren die too — causing Wait to return.
	// Safe to call concurrently with Wait, and more than once.
	Kill()
	// Output returns a bounded tail of the worker's combined stdout/stderr
	// for failure reports; it is complete only after Wait has returned.
	Output() string
}

// SpawnFunc starts one attempt of one shard (1-based), with the worker
// writing its records as JSONL to path.
type SpawnFunc func(shard, attempt int, path string) (Worker, error)

// Options configures Sweep.
type Options struct {
	// Shards is the number of workers, at most one per scenario of the
	// spec; shard i runs slice i/Shards.
	Shards int
	// Retries is how many times a crashed shard is re-spawned after its
	// first attempt; negative selects DefaultRetries.
	Retries int
	// Timeout bounds one attempt's wall time; 0 or negative means no bound.
	Timeout time.Duration
	// Backoff is the delay before the first retry, doubling per retry up to
	// MaxBackoff. Zero values select the defaults.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Dir is the directory for the per-shard JSONL streams. Every attempt
	// writes a fresh file (shard-i-attempt-k.jsonl), so a worker truncating
	// its output on startup can never race the supervisor's tail of a
	// previous attempt.
	Dir string
	// Spawn starts one shard attempt. Required.
	Spawn SpawnFunc
	// OnRecord streams each record as its JSONL line completes, with the
	// 1-based shard it came from. Called from per-shard goroutines,
	// possibly concurrently; may be nil.
	OnRecord func(shard int, rec exp.Record)
	// OnDiscard reports records a failed attempt had already streamed; the
	// retry will re-produce and re-stream them (records are deterministic,
	// so the re-run yields identical ones). May be nil.
	OnDiscard func(shard int, recs []exp.Record)
	// OnEvent receives worker lifecycle events: worker_start, worker_done,
	// worker_retry, worker_failed. Called from per-shard goroutines,
	// possibly concurrently; may be nil.
	OnEvent func(kind string, data map[string]any)
	// Interrupt, when it delivers, makes Sweep kill every live worker, stop
	// retrying, and return ErrInterrupted. Wire os/signal.Notify to it so
	// ctrl-C reaches workers parked in their own process groups.
	Interrupt <-chan os.Signal
}

// ShardStatus is one shard's outcome.
type ShardStatus struct {
	// Shard is the 1-based shard index.
	Shard int
	// Attempts is how many times the shard was spawned.
	Attempts int
	// Records is the completed shard's record set, nil when Err is set.
	Records []exp.Record
	// Err is the last attempt's failure; nil when the shard completed.
	Err error
}

// Result is the whole run's outcome. Shards[i] describes shard i+1.
type Result struct {
	Shards []ShardStatus
}

// summaryErr builds the partial-failure report: which shards died, after
// how many attempts, and why.
func (r Result) summaryErr() error {
	var failed []string
	for _, s := range r.Shards {
		if s.Err != nil {
			failed = append(failed, fmt.Sprintf("shard %d (%d attempts): %v", s.Shard, s.Attempts, s.Err))
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return fmt.Errorf("fanout: %d of %d shards failed: %s", len(failed), len(r.Shards), strings.Join(failed, "; "))
}

// Sweep runs the sweep of the frozen spec at spec — the file every worker is
// handed — across opts.Shards workers, no more than the spec has scenarios,
// and returns its merged records, sorted
// by scenario name and checked to cover the expansion exactly. A shard is
// complete once its stream holds as many records as its Matrix.Shard slice,
// even if the worker exits non-zero: the qdcbench worker exits 1 when
// scenarios fail, and failed scenarios are data, not a crash. A worker that
// exits with any status before its stream is complete has crashed and is
// retried. The error is ErrInterrupted after an interrupt, the
// which-shards-died-and-why summary when retries ran out, and the merge's
// complaint when the shards do not fold into the expansion; Result reports
// every shard's outcome in each case. Shards run concurrently —
// scenario-level parallelism inside each worker is the worker's own
// business.
func Sweep(spec string, opts Options) ([]exp.Record, Result, error) {
	if opts.Shards < 1 {
		return nil, Result{}, fmt.Errorf("fanout: shard count %d is not positive", opts.Shards)
	}
	if opts.Spawn == nil {
		return nil, Result{}, errors.New("fanout: Options.Spawn is required")
	}
	m, err := exp.LoadMatrix(spec)
	if err != nil {
		return nil, Result{}, err
	}
	if total := len(m.Expand()); opts.Shards > total {
		return nil, Result{}, fmt.Errorf("fanout: %d shards for %d scenarios; a sweep takes at most one shard per scenario", opts.Shards, total)
	}
	expected := make([]int, opts.Shards)
	for i := range expected {
		slice, _ := m.Shard(i+1, opts.Shards) // cannot fail: 1 <= i+1 <= Shards
		expected[i] = len(slice)
	}
	res, err := run(opts, expected)
	if err != nil {
		return nil, res, err
	}
	sets := make([][]exp.Record, len(res.Shards))
	for i, s := range res.Shards {
		sets[i] = s.Records
	}
	merged, err := exp.MergeRecords(sets...)
	if err == nil {
		err = exp.CheckComplete(m, merged)
	}
	if err != nil {
		return nil, res, err
	}
	return merged, res, nil
}

// run supervises every shard to completion (or exhausted retries), shard i
// having to stream expected[i-1] records. The error is nil only when every
// shard completed.
func run(opts Options, expected []int) (Result, error) {
	if opts.Retries < 0 {
		opts.Retries = DefaultRetries
	}
	if opts.Backoff <= 0 {
		opts.Backoff = DefaultBackoff
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = DefaultMaxBackoff
	}

	// stop closes when an interrupt arrives; finished closes when every
	// shard is done, releasing the watcher goroutine.
	stop := make(chan struct{})
	finished := make(chan struct{})
	var interrupted atomic.Bool
	if opts.Interrupt != nil {
		go func() {
			select {
			case <-opts.Interrupt:
				interrupted.Store(true)
				close(stop)
			case <-finished:
			}
		}()
	}

	res := Result{Shards: make([]ShardStatus, opts.Shards)}
	var wg sync.WaitGroup
	for i := 0; i < opts.Shards; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			res.Shards[shard-1] = superviseShard(opts, shard, expected[shard-1], stop)
		}(i + 1)
	}
	wg.Wait()
	close(finished)

	if interrupted.Load() {
		return res, ErrInterrupted
	}
	return res, res.summaryErr()
}

// superviseShard owns one shard's attempt/retry loop.
func superviseShard(opts Options, shard, want int, stop <-chan struct{}) ShardStatus {
	st := ShardStatus{Shard: shard}
	backoff := opts.Backoff
	for attempt := 1; ; attempt++ {
		st.Attempts = attempt
		recs, err := runAttempt(opts, shard, attempt, want, stop)
		if err == nil {
			st.Records = recs
			st.Err = nil
			return st
		}
		st.Err = err
		// Roll back whatever the dead attempt had already streamed: the
		// retry re-runs the whole shard from scratch.
		if len(recs) > 0 && opts.OnDiscard != nil {
			opts.OnDiscard(shard, recs)
		}
		if errors.Is(err, ErrInterrupted) {
			return st
		}
		if attempt > opts.Retries {
			emit(opts, "worker_failed", map[string]any{
				"shard": shard, "attempts": attempt, "error": err.Error(),
			})
			return st
		}
		emit(opts, "worker_retry", map[string]any{
			"shard": shard, "attempt": attempt, "error": err.Error(),
			"backoff_ms": float64(backoff) / float64(time.Millisecond),
		})
		timer := time.NewTimer(backoff)
		select {
		case <-stop:
			timer.Stop()
			st.Err = ErrInterrupted
			return st
		case <-timer.C:
		}
		if backoff *= 2; backoff > opts.MaxBackoff {
			backoff = opts.MaxBackoff
		}
	}
}

// runAttempt spawns one worker, tails its record stream until the worker
// exits (or the attempt times out, or an interrupt arrives), and decides
// whether the attempt completed its shard of want records. It returns the
// records streamed so far in every case, so a failed attempt's partial
// output can be rolled back by the caller.
func runAttempt(opts Options, shard, attempt, want int, stop <-chan struct{}) ([]exp.Record, error) {
	select {
	case <-stop:
		return nil, ErrInterrupted
	default:
	}
	path := filepath.Join(opts.Dir, fmt.Sprintf("shard-%d-attempt-%d.jsonl", shard, attempt))
	// A reused Dir (qdcbench fanout -dir, the daemon's persistent state dir)
	// may hold a complete stream left behind by a previous sweep under this
	// very name. Tailing it before the new worker truncates it would let the
	// supervisor judge the shard complete without the worker having produced
	// anything, so the stale file must be gone before the worker can exist.
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("removing stale stream %s: %w", path, err)
	}
	emit(opts, "worker_start", map[string]any{"shard": shard, "attempt": attempt, "stream": path})
	w, err := opts.Spawn(shard, attempt, path)
	if err != nil {
		return nil, fmt.Errorf("spawn: %w", err)
	}

	tail := exp.NewTail(path)
	defer tail.Close() //nolint:errcheck // read-only descriptor
	var recs []exp.Record
	drain := func() error {
		fresh, err := tail.Poll()
		for _, r := range fresh {
			recs = append(recs, r)
			if opts.OnRecord != nil {
				opts.OnRecord(shard, r)
			}
		}
		return err
	}

	done := make(chan error, 1)
	go func() { done <- w.Wait() }()
	var timeoutC <-chan time.Time
	if opts.Timeout > 0 {
		timer := time.NewTimer(opts.Timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	tick := time.NewTicker(pollInterval)
	defer tick.Stop()

	var exitErr error
	for waiting := true; waiting; {
		select {
		case exitErr = <-done:
			waiting = false
		case <-tick.C:
			if err := drain(); err != nil {
				w.Kill()
				<-done
				return recs, fmt.Errorf("record stream: %w", err)
			}
		case <-timeoutC:
			w.Kill()
			<-done
			return recs, fmt.Errorf("timeout after %s", opts.Timeout)
		case <-stop:
			w.Kill()
			<-done
			return recs, ErrInterrupted
		}
	}
	if err := drain(); err != nil {
		return recs, fmt.Errorf("record stream: %w", err)
	}

	// Completion is judged by the stream, not the exit status: the worker
	// exits non-zero when scenarios fail, and failed scenarios are data. An
	// incomplete stream — whatever the exit status — is a crash.
	if len(recs) != want || tail.Pending() {
		reason := fmt.Sprintf("worker exited with %d of %d records", len(recs), want)
		if tail.Pending() {
			reason += " (died mid-record)"
		}
		if exitErr != nil {
			reason = fmt.Sprintf("%s: %v", reason, exitErr)
		}
		if out := strings.TrimSpace(w.Output()); out != "" {
			reason = fmt.Sprintf("%s; output: %s", reason, out)
		}
		return recs, errors.New(reason)
	}
	exit := "0"
	if exitErr != nil {
		exit = exitErr.Error()
	}
	emit(opts, "worker_done", map[string]any{
		"shard": shard, "attempt": attempt, "records": len(recs), "exit": exit,
	})
	return recs, nil
}

func emit(opts Options, kind string, data map[string]any) {
	if opts.OnEvent != nil {
		opts.OnEvent(kind, data)
	}
}
