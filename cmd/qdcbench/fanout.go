package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"qdc/internal/exp"
	"qdc/internal/fanout"
)

// runFanout supervises a multi-process sweep: the parent freezes the
// matrix, re-invokes its own binary once per shard with -shard i/n -jsonl,
// and runs the shards as one fanout.Sweep — tailing each worker's record
// stream live (feeding the same Status counters, heartbeat and -listen
// endpoints a single-process sweep uses, plus worker_* lifecycle events in
// the -events log), retrying crashed workers with capped backoff, and
// merging the completed shards into the canonical snapshot, byte identical
// to an unsharded -json run of the same matrix.
func runFanout(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("qdcbench fanout", flag.ContinueOnError)
	matrix := fs.String("matrix", "default", "scenario matrix to fan out: a registered name or a *.json spec path")
	shards := fs.Int("shards", 0, "number of worker processes; each runs one -shard i/n slice (required)")
	jsonOut := fs.String("json", "", "write the merged canonical snapshot to this file")
	workers := fs.Int("workers", 0, "per-worker concurrent scenario executions, forwarded as -workers (0 = each worker uses GOMAXPROCS)")
	timeout := fs.Duration("timeout", exp.DefaultTimeout, "per-scenario wall-clock budget, forwarded to every worker")
	shardTimeout := fs.Duration("shard-timeout", 10*time.Minute, "wall-clock budget for one shard attempt; a worker exceeding it is killed and retried (0 = unbounded)")
	retries := fs.Int("retries", fanout.DefaultRetries, "times a crashed shard is re-spawned before the sweep fails")
	seed := fs.Int64("seed", 0, "override the matrix base seed, forwarded to every worker (0 keeps the spec's seed)")
	dir := fs.String("dir", "", "directory for the per-shard JSONL streams (default: a temp dir, removed when the sweep succeeds)")
	var live sweepFlags
	live.register(fs, "sweep_start, worker_start/done/retry/failed, one scenario event per record, sweep_done")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("fanout takes no positional arguments (qdcbench fanout -shards 3 -matrix quick -json out.json)")
	}
	if *shards < 1 {
		return fmt.Errorf("fanout needs -shards >= 1")
	}

	m, err := exp.ResolveMatrix(*matrix)
	if err != nil {
		return err
	}
	if *seed != 0 {
		m.BaseSeed = *seed
	}
	spawnFor, err := workerSpawn(*workers, *timeout)
	if err != nil {
		return err
	}

	streamDir := *dir
	tempDir := streamDir == ""
	if tempDir {
		if streamDir, err = os.MkdirTemp("", "qdcbench-fanout-"); err != nil {
			return err
		}
		// Shard streams are scratch state once the merge succeeded; after a
		// failure they stay behind for diagnosis and the path is printed.
		defer func() {
			if retErr == nil {
				os.RemoveAll(streamDir) //nolint:errcheck // scratch cleanup
			} else {
				fmt.Fprintf(out, "shard streams kept in %s\n", streamDir)
			}
		}()
	} else if err := os.MkdirAll(streamDir, 0o755); err != nil {
		return err
	}

	// Freeze the resolved spec (seed override included) next to the shard
	// streams; the sweep and every worker read only the frozen file. A *.json
	// -matrix argument re-resolved per worker (and per retry) could have been
	// edited since, producing expected-count mismatches or silently different
	// scenarios. The frozen file is the sweep's single source of truth.
	frozen := filepath.Join(streamDir, "matrix.json")
	if err := exp.SaveMatrix(frozen, m); err != nil {
		return err
	}

	total := len(m.Expand())
	sw, err := live.start(out, total, map[string]any{"matrix": m.Name, "scenarios": total, "shards": *shards})
	if err != nil {
		return err
	}
	finish := func(err error) error {
		data := map[string]any{"scenarios": sw.status.Done.Load(), "failed": sw.status.Failed.Load(), "shards": *shards}
		if err != nil {
			data["error"] = err.Error()
		}
		return sw.finish(data, err)
	}

	// ctrl-C (or a CI kill) reaches the supervisor, which kills every
	// worker's process group — workers are parked in their own groups, so
	// nothing survives as an orphan.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	merged, res, err := fanout.Sweep(frozen, fanout.Options{
		Shards:  *shards,
		Retries: *retries,
		Timeout: *shardTimeout,
		Dir:     streamDir,
		Spawn:   spawnFor(frozen, *shards),
		OnRecord: func(shard int, rec exp.Record) {
			sw.status.ScenarioStarted()
			sw.status.ScenarioDone(rec)
			data := exp.ScenarioEvent(rec)
			data["shard"] = shard
			sw.event("scenario", data)
		},
		OnDiscard: func(shard int, recs []exp.Record) {
			for _, rec := range recs {
				sw.status.ScenarioUncounted(rec)
			}
		},
		OnEvent:   sw.event,
		Interrupt: sigCh,
	})
	sw.stopHeartbeat()
	for _, s := range res.Shards {
		if s.Err != nil {
			fmt.Fprintf(out, "  SHARD %d/%d FAILED after %d attempt(s): %v\n", s.Shard, *shards, s.Attempts, s.Err)
		} else {
			fmt.Fprintf(out, "  shard %d/%d: %d records in %d attempt(s)\n", s.Shard, *shards, len(s.Records), s.Attempts)
		}
	}
	if err == nil && *jsonOut != "" {
		err = exp.WriteSnapshot(*jsonOut, merged)
	}
	if err != nil {
		return finish(err)
	}

	failed := 0
	for _, r := range merged {
		if r.Failed() {
			fmt.Fprintf(out, "  FAIL %-40s %s%s\n", r.Scenario.Name, r.Error, r.Detail)
			failed++
		}
	}
	fmt.Fprintf(out, "fanout matrix %s: %d shards, %d scenarios, %d passed, %d failed\n",
		m.Name, *shards, len(merged), len(merged)-failed, failed)
	printBackendBreakdown(out, merged)
	printCrossover(out, merged)
	if err := finish(nil); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", failed, len(merged))
	}
	return nil
}
