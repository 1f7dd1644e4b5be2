// Package qdcd is the sweep control plane: a long-running daemon that
// accepts matrix specs over an HTTP/JSON API, schedules each job's
// Matrix.Shard slices onto a persistent bounded worker pool built on the
// internal/fanout supervision tree (crash retry, process-group cleanup,
// completion judged by stream completeness), streams records to any number
// of concurrent clients as shard JSONL lines complete, and serves merged
// canonical snapshots and diffs. Each job is one fanout.Sweep, the same
// sweep job `qdcbench fanout` runs.
//
// # On-disk layout and crash recovery
//
// Everything the daemon believes about a job is re-derivable from the
// job's directory under the state dir:
//
//	<state>/jobs/<id>/job.json       submission parameters + terminal state
//	<state>/jobs/<id>/matrix.json    the frozen spec (exp.SaveMatrix)
//	<state>/jobs/<id>/streams/       per-shard per-attempt JSONL streams
//	<state>/jobs/<id>/snapshot.json  canonical merged snapshot, written once
//
// The recovery posture follows the self-stabilization tradition: a
// restarted daemon converges back to a correct view of its jobs purely
// from what is on disk. Jobs whose job.json records a terminal state are
// re-adopted as-is (done jobs re-serve their snapshot byte for byte,
// failed jobs re-serve their error), except a done job whose snapshot is
// missing, unreadable or does not cover its frozen spec
// (exp.CheckComplete), which is re-run; jobs that never reached a terminal
// state — the daemon died mid-sweep — are re-run from their frozen spec.
// Re-running is safe because the supervisor removes any stale stream file
// before each attempt spawns and every record is deterministic given the
// frozen spec, so a re-run converges to the exact snapshot the interrupted
// run would have produced. A job dir whose job.json cannot be read, or
// names an id other than the dir's own, is skipped, but its id stays
// taken: the id sequence resumes past every job-<n> dir on disk, so a new
// submission never overwrites one.
//
// # The frozen-spec rule
//
// A job's matrix is resolved exactly once, at submission, and snapshotted
// to matrix.json; workers and retries are handed only the frozen path.
// A *.json spec edited after submission therefore cannot make a worker run
// a different sweep than the one the daemon expanded and will verify with
// exp.CheckComplete.
package qdcd

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"qdc/internal/exp"
	"qdc/internal/fanout"
	"qdc/internal/obs"
)

// JobView is the slice of a job a SpawnJob needs to start workers: the
// worker re-runs the frozen spec's shard slice and streams records to the
// path the supervisor hands each attempt.
type JobView struct {
	// ID is the job's identifier ("job-3").
	ID string
	// SpecPath is the job's frozen matrix spec (matrix.json).
	SpecPath string
	// Shards is the job's shard count; shard i runs slice i/Shards.
	Shards int
}

// SpawnJob returns the fanout.SpawnFunc used for one job's shard attempts.
// The daemon's CLI wiring execs the qdcbench binary with
// `-matrix <SpecPath> -shard i/n -jsonl <path>`; tests substitute
// in-process stubs, which drive the entire control plane without any
// subprocess.
type SpawnJob func(j JobView) fanout.SpawnFunc

// Options configures New.
type Options struct {
	// StateDir is the daemon's persistent root; see the package doc for the
	// layout. Created if absent. Required.
	StateDir string
	// Pool bounds the number of concurrently running shard workers across
	// all jobs — the persistent worker pool. Zero or negative selects
	// GOMAXPROCS.
	Pool int
	// Retries is the default per-shard crash-retry budget for jobs that do
	// not override it; negative selects fanout.DefaultRetries.
	Retries int
	// ShardTimeout bounds one shard attempt's wall time; 0 means unbounded.
	ShardTimeout time.Duration
	// Spawn starts one job's shard attempts. Required.
	Spawn SpawnJob
}

// Server owns the job table, the worker pool and the state dir. Create it
// with New, mount Handler on an HTTP server, and Close it to interrupt
// running jobs and wait them out.
type Server struct {
	opts  Options
	slots chan struct{} // worker-pool semaphore: one token per running shard attempt

	mu     sync.Mutex
	jobs   map[string]*Job
	nextID int

	wg sync.WaitGroup // one entry per live runJob goroutine

	reg           *obs.Registry
	jobsSubmitted obs.Counter
	jobsDone      obs.Counter
	jobsFailed    obs.Counter
}

// New builds a Server over opts.StateDir and immediately converges it with
// the disk state: terminal jobs are adopted, interrupted ones re-run.
func New(opts Options) (*Server, error) {
	if opts.Spawn == nil {
		return nil, errors.New("qdcd: Options.Spawn is required")
	}
	if opts.StateDir == "" {
		return nil, errors.New("qdcd: Options.StateDir is required")
	}
	if opts.Pool < 1 {
		opts.Pool = runtime.GOMAXPROCS(0)
	}
	if opts.Retries < 0 {
		opts.Retries = fanout.DefaultRetries
	}
	if err := os.MkdirAll(filepath.Join(opts.StateDir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("qdcd: %w", err)
	}
	s := &Server{
		opts:  opts,
		slots: make(chan struct{}, opts.Pool),
		jobs:  make(map[string]*Job),
		reg:   obs.NewRegistry(),
	}
	s.reg.PublishCounter("jobs_submitted", &s.jobsSubmitted)
	s.reg.PublishCounter("jobs_done", &s.jobsDone)
	s.reg.PublishCounter("jobs_failed", &s.jobsFailed)
	s.reg.Publish("jobs_known", func() any {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.jobs)
	})
	if err := s.adoptStateDir(); err != nil {
		return nil, err
	}
	return s, nil
}

// adoptStateDir converges the in-memory job table with the state dir; see
// the package doc for the semantics per on-disk state.
func (s *Server) adoptStateDir() error {
	jobsDir := filepath.Join(s.opts.StateDir, "jobs")
	entries, err := os.ReadDir(jobsDir)
	if err != nil {
		return fmt.Errorf("qdcd: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		// The id sequence moves past every job dir, adoptable or not, so a
		// new submission never reuses a skipped dir's id and overwrites it.
		if n, ok := idNumber(e.Name()); ok && n > s.nextID {
			s.nextID = n
		}
		dir := filepath.Join(jobsDir, e.Name())
		jf, err := readJobFile(dir)
		if err != nil || jf.ID != e.Name() {
			// A half-created job dir (the daemon died inside submit, an
			// operator's stray file) carries no adoptable state; skipping it
			// converges to the correct view of every job that does. So does
			// a dir restored or copied under another name: adopted under the
			// id its file names, it would take an id the sequence has not
			// reached, and a later submission would replace it in the table,
			// or a second dir naming the same id would.
			continue
		}
		j := newJob(jf, dir)
		switch jf.State {
		case StateDone:
			recs, err := exp.ReadRecords(j.snapshotPath())
			var m exp.Matrix
			if err == nil {
				m, err = exp.LoadMatrix(j.specPath())
			}
			if err == nil {
				err = exp.CheckComplete(m, recs)
			}
			if err != nil {
				// runJob writes the snapshot before job.json, so a daemon
				// that dies between the two writes leaves a non-terminal job
				// file, not this state. A done job whose snapshot is
				// unreadable, or no longer covers its frozen spec, lost it
				// afterwards: it was deleted, cut short or edited, or it
				// never reached the disk, since nothing syncs it. The frozen
				// spec reproduces it, so re-run the job.
				s.startJob(j)
				break
			}
			j.adoptDone(recs)
		case StateFailed:
			j.state = StateFailed
			j.errMsg = jf.Error
		default:
			// No terminal state on disk: the previous daemon died mid-job.
			s.startJob(j)
		}
		s.jobs[jf.ID] = j
	}
	return nil
}

// startJob transitions the job to pending and launches its supervision
// goroutine.
func (s *Server) startJob(j *Job) {
	j.state = StatePending
	s.wg.Add(1)
	go s.runJob(j)
}

// Submit resolves, freezes and schedules one job; the HTTP POST /jobs
// handler is a thin wrapper around it. The returned job is already
// running (or queued on the worker pool).
func (s *Server) Submit(req SubmitRequest) (*Job, error) {
	var m exp.Matrix
	var err error
	switch {
	case req.Spec != nil:
		m = *req.Spec
		if m.Name == "" {
			// LoadMatrix would default the name from the frozen file's base
			// name; pinning it here keeps the daemon's view identical to the
			// workers'.
			m.Name = "matrix"
		}
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("qdcd: inline spec: %w", err)
		}
	case req.Matrix != "":
		if m, err = exp.ResolveMatrix(req.Matrix); err != nil {
			return nil, err
		}
	default:
		return nil, errors.New("qdcd: a job needs either a matrix name/path or an inline spec")
	}
	if req.Seed != 0 {
		m.BaseSeed = req.Seed
	}
	if req.Shards < 1 {
		return nil, fmt.Errorf("qdcd: shard count %d is not positive", req.Shards)
	}
	total := len(m.Expand())
	if total == 0 {
		return nil, fmt.Errorf("qdcd: matrix %s has no scenarios to run", m.Name)
	}
	if req.Shards > total {
		return nil, fmt.Errorf("qdcd: %d shards for %d scenarios; a job takes at most one shard per scenario", req.Shards, total)
	}
	retries := s.opts.Retries
	if req.Retries != nil {
		if *req.Retries < 0 {
			return nil, fmt.Errorf("qdcd: retry budget %d is negative", *req.Retries)
		}
		retries = *req.Retries
	}

	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	s.mu.Unlock()

	jf := jobFile{
		ID:      id,
		Matrix:  m.Name,
		Shards:  req.Shards,
		Retries: retries,
		Total:   total,
		Created: time.Now().UTC(),
	}
	dir := filepath.Join(s.opts.StateDir, "jobs", id)
	j := newJob(jf, dir)
	if err := os.MkdirAll(j.streamDir(), 0o755); err != nil {
		return nil, fmt.Errorf("qdcd: %w", err)
	}
	if err := exp.SaveMatrix(j.specPath(), m); err != nil {
		return nil, err
	}
	if err := writeJobFile(dir, jf); err != nil {
		return nil, err
	}

	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()
	s.jobsSubmitted.Inc()
	s.startJob(j)
	return j, nil
}

// runJob supervises one job to a terminal state (or an interrupt): it runs
// the job's frozen spec as one fanout.Sweep over the pooled spawn and writes
// the merged records as the canonical snapshot — the
// byte-identical-to-unsharded artifact the /snapshot endpoint serves.
func (s *Server) runJob(j *Job) {
	defer s.wg.Done()
	j.setState(StateRunning)
	spawn := s.opts.Spawn(JobView{ID: j.ID, SpecPath: j.specPath(), Shards: j.Shards})
	merged, _, err := fanout.Sweep(j.specPath(), fanout.Options{
		Shards:    j.Shards,
		Retries:   j.Retries,
		Timeout:   s.opts.ShardTimeout,
		Dir:       j.streamDir(),
		Spawn:     s.pooled(spawn),
		OnRecord:  j.onRecord,
		OnDiscard: j.onDiscard,
		Interrupt: j.interrupt,
	})
	if errors.Is(err, fanout.ErrInterrupted) {
		// Deliberately not persisted: the on-disk state stays non-terminal,
		// which is exactly what makes the next daemon re-run the job.
		j.setState(StateInterrupted)
		return
	}
	if err == nil {
		err = exp.WriteSnapshot(j.snapshotPath(), merged)
	}
	if err != nil {
		s.finishJob(j, StateFailed, err)
		return
	}
	s.finishJob(j, StateDone, nil)
}

// finishJob records the terminal state in memory and on disk, in that
// order of authority: the on-disk job file is what the next daemon trusts.
func (s *Server) finishJob(j *Job, state string, cause error) {
	jf := j.file
	jf.State = state
	if cause != nil {
		jf.Error = cause.Error()
	}
	if err := writeJobFile(j.dir, jf); err != nil && cause == nil {
		state, cause = StateFailed, err
		jf.State, jf.Error = state, err.Error()
	}
	j.finish(state, jf.Error)
	if state == StateDone {
		s.jobsDone.Inc()
	} else {
		s.jobsFailed.Inc()
	}
}

// pooled wraps a job's SpawnFunc with the worker-pool semaphore: an
// attempt only starts once a slot frees up, and holds it until its worker
// exits. This is what bounds concurrency across jobs while each job keeps
// its own fanout supervision tree.
func (s *Server) pooled(inner fanout.SpawnFunc) fanout.SpawnFunc {
	return func(shard, attempt int, path string) (fanout.Worker, error) {
		s.slots <- struct{}{}
		w, err := inner(shard, attempt, path)
		if err != nil {
			<-s.slots
			return nil, err
		}
		return &slotWorker{Worker: w, free: func() { <-s.slots }}, nil
	}
}

// slotWorker releases its pool slot when the worker exits. Wait is called
// exactly once per the Worker contract, so the release cannot double.
type slotWorker struct {
	fanout.Worker
	free func()
}

func (w *slotWorker) Wait() error {
	err := w.Worker.Wait()
	w.free()
	return err
}

// Close interrupts every running job (killing live workers through the
// fanout tree, which kills whole process groups) and waits for the
// supervision goroutines to drain. Interrupted jobs stay non-terminal on
// disk, so the next daemon re-runs them.
func (s *Server) Close() {
	s.mu.Lock()
	for _, j := range s.jobs {
		j.signalInterrupt()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Job returns the job with the given id, or nil.
func (s *Server) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Jobs returns every known job sorted by submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool {
		ni, _ := idNumber(out[i].ID)
		nk, _ := idNumber(out[k].ID)
		return ni < nk
	})
	return out
}

// idNumber extracts the sequence number of a "job-N" id.
func idNumber(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
