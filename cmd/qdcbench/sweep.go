package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"qdc/internal/exp"
	"qdc/internal/fanout"
	"qdc/internal/obs"
)

// sweepFlags are the live-observability flags of every sweep mode: matrix
// sweeps and fanout supervisions both register them.
type sweepFlags struct {
	events        string
	listen        string
	linger        time.Duration
	progressEvery time.Duration
}

// register adds the flags to fs; eventKinds lists the events the mode logs.
func (f *sweepFlags) register(fs *flag.FlagSet, eventKinds string) {
	fs.StringVar(&f.events, "events", "", "append a JSONL event log of the sweep ("+eventKinds+") to this file")
	fs.StringVar(&f.listen, "listen", "", "serve live sweep endpoints on this address (e.g. :8123): /debug/pprof, /debug/vars, /vars, /progress")
	fs.DurationVar(&f.linger, "linger", 0, "keep the -listen server up this long after the sweep, so probes can scrape a finished run")
	fs.DurationVar(&f.progressEvery, "progress", 0, "print a progress heartbeat line at this interval (plus one final line), for headless CI logs")
}

// sweep is one running sweep's live plumbing: the Status counters behind
// -progress and -listen, and the -events log bracketed by sweep_start and
// sweep_done.
type sweep struct {
	status        *exp.Status
	log           *obs.EventLog // nil without -events
	stopHeartbeat func()
	shutdown      func()
}

// start opens the -events log with a sweep_start event carrying data, then
// starts the -listen server and the -progress heartbeat over a fresh Status
// for total scenarios.
func (f sweepFlags) start(out io.Writer, total int, data map[string]any) (*sweep, error) {
	sw := &sweep{status: exp.NewStatus(total)}
	var err error
	if f.events != "" {
		if sw.log, err = obs.CreateEventLog(f.events); err != nil {
			return nil, err
		}
		sw.event("sweep_start", data)
	}
	if sw.shutdown, err = startListen(out, f.listen, f.linger, sw.status); err != nil {
		sw.log.Close() //nolint:errcheck // the listen error is the one to report
		return nil, err
	}
	sw.stopHeartbeat = startHeartbeat(out, f.progressEvery, sw.status)
	return sw, nil
}

// event appends one event to the -events log, if there is one. A failed
// write surfaces from finish: the log keeps its first error for Close.
func (s *sweep) event(kind string, data map[string]any) {
	s.log.Emit(kind, data) //nolint:errcheck // reported by Close
}

// finish logs sweep_done with data, closes the event log, and shuts the
// -listen server down once its linger window has passed. It returns err,
// or the event log's first error when err is nil.
func (s *sweep) finish(data map[string]any, err error) error {
	s.event("sweep_done", data)
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	s.shutdown()
	return err
}

// startListen serves the live sweep endpoints (pprof, /vars, /progress)
// for status on addr. The returned shutdown waits out the linger window —
// so probes can scrape a finished run — then closes the server. With an
// empty addr both the start and the shutdown are no-ops.
func startListen(out io.Writer, addr string, linger time.Duration, status *exp.Status) (shutdown func(), err error) {
	if addr == "" {
		return func() {}, nil
	}
	reg := obs.NewRegistry()
	status.Register(reg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "serving pprof, /vars and /progress on http://%s\n", ln.Addr())
	server := &http.Server{Handler: obs.NewMux(reg, status.Progress)}
	go server.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return func() {
		if linger > 0 {
			fmt.Fprintf(out, "lingering %s for live-endpoint scrapes\n", linger)
			time.Sleep(linger)
		}
		server.Close() //nolint:errcheck // shutting down, nothing to salvage
	}, nil
}

// startHeartbeat prints a progress line every interval for headless CI
// logs. The returned stop joins the ticker goroutine before printing one
// final line, so heartbeat writes never interleave with the caller's
// summary. With a non-positive interval both are no-ops.
func startHeartbeat(out io.Writer, every time.Duration, status *exp.Status) (stop func()) {
	heartbeat := func() {
		fmt.Fprintf(out, "progress: %d/%d done, %d failed, %d in flight, %.0f node-rounds/sec\n",
			status.Done.Load(), status.Total, status.Failed.Load(), status.InFlight.Load(),
			status.NodeRoundsPerSec())
	}
	if every <= 0 {
		return func() {}
	}
	hbStop, hbDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(hbDone)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-tick.C:
				heartbeat()
			}
		}
	}()
	return func() {
		close(hbStop)
		<-hbDone
		heartbeat()
	}
}

// testSpawn, when non-nil, starts shard workers in-process from the argv
// workerSpawn built instead of re-executing the binary: the one seam the CLI
// tests drive both fanout and serve through.
var testSpawn func(shard, attempt int, args []string) (fanout.Worker, error)

// workerSpawn returns the shard-worker spawn of fanout and serve: for the
// frozen spec at spec split into shards slices, each worker is this binary
// re-executed as `-matrix spec -shard i/n -jsonl path -timeout T`, plus
// -workers W when workers is positive.
func workerSpawn(workers int, timeout time.Duration) (func(spec string, shards int) fanout.SpawnFunc, error) {
	bin, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("cannot locate the qdcbench binary to run shard workers: %w", err)
	}
	return func(spec string, shards int) fanout.SpawnFunc {
		args := func(shard int, path string) []string {
			a := []string{"-matrix", spec, "-shard", fmt.Sprintf("%d/%d", shard, shards), "-jsonl", path, "-timeout", timeout.String()}
			if workers > 0 {
				a = append(a, "-workers", strconv.Itoa(workers))
			}
			return a
		}
		if testSpawn != nil {
			return func(shard, attempt int, path string) (fanout.Worker, error) {
				return testSpawn(shard, attempt, args(shard, path))
			}
		}
		return fanout.ExecSpawn(bin, args)
	}, nil
}
