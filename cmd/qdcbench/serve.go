package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qdc/internal/exp"
	"qdc/internal/fanout"
	"qdc/internal/qdcd"
)

// testServeInterrupt, when non-nil, replaces the signal channel runServe
// blocks on, so tests can shut a served daemon down deterministically.
var testServeInterrupt chan os.Signal

// runServe starts qdcd, the long-running sweep control plane: an HTTP/JSON
// daemon that accepts matrix jobs (POST /jobs), schedules their shard
// slices onto a persistent bounded worker pool (each worker a re-exec of
// this binary supervised by internal/fanout), and serves live status,
// record streams, canonical snapshots and diffs per job. Jobs persist
// under -state; a restarted daemon re-adopts finished jobs and re-runs
// interrupted ones. The process runs until SIGINT/SIGTERM, then drains.
func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qdcbench serve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8123", "address the control-plane API listens on")
	state := fs.String("state", "qdcd-state", "persistent state directory: frozen specs, shard streams and snapshots live here across restarts")
	pool := fs.Int("pool", 0, "max concurrently running shard workers across all jobs (0 = GOMAXPROCS)")
	workers := fs.Int("workers", 0, "per-worker concurrent scenario executions, forwarded as -workers (0 = each worker uses GOMAXPROCS)")
	timeout := fs.Duration("timeout", exp.DefaultTimeout, "per-scenario wall-clock budget, forwarded to every worker")
	shardTimeout := fs.Duration("shard-timeout", 10*time.Minute, "wall-clock budget for one shard attempt; a worker exceeding it is killed and retried (0 = unbounded)")
	retries := fs.Int("retries", fanout.DefaultRetries, "default times a crashed shard is re-spawned before its job fails (jobs may override)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve takes no positional arguments (qdcbench serve -listen :8123 -state qdcd-state)")
	}

	spawnFor, err := workerSpawn(*workers, *timeout)
	if err != nil {
		return err
	}
	srv, err := qdcd.New(qdcd.Options{
		StateDir:     *state,
		Pool:         *pool,
		Retries:      *retries,
		ShardTimeout: *shardTimeout,
		Spawn:        func(j qdcd.JobView) fanout.SpawnFunc { return spawnFor(j.SpecPath, j.Shards) },
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		srv.Close()
		return err
	}
	fmt.Fprintf(out, "qdcd: sweep control plane on http://%s (state %s, pool %d)\n", ln.Addr(), *state, *pool)
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck // Serve always returns on Close

	sigCh := testServeInterrupt
	if sigCh == nil {
		sigCh = make(chan os.Signal, 1)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigCh)
	}
	<-sigCh
	fmt.Fprintln(out, "qdcd: interrupt; stopping jobs and draining")
	srv.Close()
	return hs.Close()
}

// runSubmit round-trips a sweep through a running qdcd daemon: it submits
// the job (a registered matrix by name, a *.json spec read locally and
// sent inline), optionally polls it to completion, and optionally
// downloads the canonical snapshot — the byte-identical stand-in for a
// local `qdcbench -matrix M -json OUT` run.
func runSubmit(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qdcbench submit", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8123", "base URL of the qdcd control plane")
	matrix := fs.String("matrix", "default", "matrix to submit: a registered name (resolved by the daemon) or a *.json spec path (loaded locally, submitted inline)")
	shards := fs.Int("shards", 1, "number of shard workers the daemon splits the job into")
	seed := fs.Int64("seed", 0, "override the matrix base seed (0 keeps the spec's seed)")
	retries := fs.Int("retries", -1, "per-shard crash retries for this job (-1 = the daemon's default)")
	wait := fs.Bool("wait", false, "poll the job until it reaches a terminal state; a failed job exits non-zero")
	jsonOut := fs.String("json", "", "download the canonical snapshot to this file once the job is done (implies -wait)")
	poll := fs.Duration("poll", time.Second, "polling interval for -wait")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("submit takes no positional arguments (qdcbench submit -addr http://host:8123 -matrix quick -shards 2 -wait)")
	}

	req := qdcd.SubmitRequest{Shards: *shards, Seed: *seed}
	if *retries >= 0 {
		req.Retries = retries
	}
	if _, ok := exp.LookupMatrix(*matrix); ok {
		req.Matrix = *matrix
	} else {
		// A file spec is resolved locally and travels inline, so the daemon
		// never needs the client's filesystem.
		m, err := exp.ResolveMatrix(*matrix)
		if err != nil {
			return err
		}
		req.Spec = &m
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := http.Post(*addr+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var st qdcd.JobStatus
	if err := decodeAPI(resp, http.StatusCreated, &st); err != nil {
		return err
	}
	fmt.Fprintf(out, "submitted %s: matrix %s, %d scenarios across %d shards\n", st.ID, st.Matrix, st.Total, st.Shards)
	if !*wait && *jsonOut == "" {
		return nil
	}

	for !terminalState(st.State) {
		time.Sleep(*poll)
		resp, err := http.Get(*addr + "/jobs/" + st.ID)
		if err != nil {
			return err
		}
		if err := decodeAPI(resp, http.StatusOK, &st); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "job %s %s: %d/%d scenarios, %d failed\n", st.ID, st.State, st.Done, st.Total, st.Failed)
	if st.State != "done" {
		return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	if *jsonOut != "" {
		resp, err := http.Get(*addr + "/jobs/" + st.ID + "/snapshot")
		if err != nil {
			return err
		}
		defer resp.Body.Close() //nolint:errcheck // read side
		if resp.StatusCode != http.StatusOK {
			return apiError(resp)
		}
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if _, err := io.Copy(f, resp.Body); err != nil {
			f.Close() //nolint:errcheck // the copy error is the one to report
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "snapshot written to %s\n", *jsonOut)
	}
	return nil
}

// terminalState mirrors qdcd's terminal job states on the client side.
func terminalState(state string) bool {
	return state == "done" || state == "failed" || state == "interrupted"
}

// decodeAPI decodes a JSON API response into v, turning any unexpected
// status into the server's error message.
func decodeAPI(resp *http.Response, want int, v any) error {
	defer resp.Body.Close() //nolint:errcheck // read side
	if resp.StatusCode != want {
		return apiError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// apiError extracts the {"error": ...} payload of a failed API call.
func apiError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Error != "" {
		return fmt.Errorf("qdcd: %s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("qdcd: unexpected response %s", resp.Status)
}
