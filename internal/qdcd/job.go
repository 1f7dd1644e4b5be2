package qdcd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"qdc/internal/exp"
)

// Job lifecycle states. Only StateDone and StateFailed are terminal and
// only terminal states are persisted to disk; everything else is the
// in-memory view of a job in flight (an interrupted job deliberately
// leaves no terminal marker, so a restarted daemon re-runs it).
const (
	StatePending     = "pending"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateInterrupted = "interrupted"
)

// SubmitRequest is the POST /jobs body. Exactly one of Matrix and Spec
// selects the sweep: Matrix is a registered name or a *.json spec path
// resolved on the daemon's host, Spec is a full inline matrix (what
// `qdcbench submit` sends for local spec files, so the daemon never needs
// the client's filesystem).
type SubmitRequest struct {
	Matrix string      `json:"matrix,omitempty"`
	Spec   *exp.Matrix `json:"spec,omitempty"`
	// Shards is the number of worker slices the job is split into.
	Shards int `json:"shards"`
	// Seed, when non-zero, overrides the spec's base seed before the spec
	// is frozen.
	Seed int64 `json:"seed,omitempty"`
	// Retries, when set, overrides the daemon's default per-shard crash
	// retry budget.
	Retries *int `json:"retries,omitempty"`
}

// JobStatus is the wire view of a job: the POST /jobs response and the
// GET /jobs and GET /jobs/{id} payloads. Live counters come from the
// job's exp.Status, so a poll during the sweep sees the same numbers the
// /progress endpoint of a local sweep would show.
type JobStatus struct {
	ID               string    `json:"id"`
	Matrix           string    `json:"matrix"`
	Shards           int       `json:"shards"`
	State            string    `json:"state"`
	Total            int       `json:"total"`
	Done             int64     `json:"done"`
	Failed           int64     `json:"failed"`
	InFlight         int64     `json:"in_flight"`
	Records          int       `json:"records"`
	NodeRoundsPerSec float64   `json:"node_rounds_per_sec"`
	Created          time.Time `json:"created"`
	Error            string    `json:"error,omitempty"`
}

// jobFile is the persisted half of a job: the submission parameters plus,
// once the job reaches a terminal state, that state. It is written at
// submission and rewritten exactly once, by finishJob.
type jobFile struct {
	ID      string    `json:"id"`
	Matrix  string    `json:"matrix"`
	Shards  int       `json:"shards"`
	Retries int       `json:"retries"`
	Total   int       `json:"total"`
	Created time.Time `json:"created"`
	State   string    `json:"state,omitempty"`
	Error   string    `json:"error,omitempty"`
}

// shardRec tags a streamed record with the shard that produced it, so a
// retried shard's rolled-back records can be dropped from the live list.
type shardRec struct {
	shard int
	rec   exp.Record
}

// Job is one submitted sweep. Immutable identity fields are plain; the
// mutable live view (state, streamed records) is guarded by mu, with
// changed closed-and-replaced on every mutation so streaming clients can
// wait for news without polling.
type Job struct {
	ID      string
	Matrix  string
	Shards  int
	Retries int
	Total   int
	Created time.Time

	file jobFile
	dir  string

	status    *exp.Status
	interrupt chan os.Signal

	mu      sync.Mutex
	state   string
	errMsg  string
	recs    []shardRec
	changed chan struct{}
}

// newJob builds the in-memory job for a job file; the caller decides the
// initial state (adoption vs a fresh submission).
func newJob(jf jobFile, dir string) *Job {
	return &Job{
		ID:        jf.ID,
		Matrix:    jf.Matrix,
		Shards:    jf.Shards,
		Retries:   jf.Retries,
		Total:     jf.Total,
		Created:   jf.Created,
		file:      jf,
		dir:       dir,
		status:    exp.NewStatus(jf.Total),
		interrupt: make(chan os.Signal, 1),
		state:     StatePending,
		changed:   make(chan struct{}),
	}
}

func (j *Job) specPath() string     { return filepath.Join(j.dir, "matrix.json") }
func (j *Job) streamDir() string    { return filepath.Join(j.dir, "streams") }
func (j *Job) snapshotPath() string { return filepath.Join(j.dir, "snapshot.json") }

// adoptDone restores a finished job from its snapshot: the records feed
// the live list (for /records and /diff) and the status counters, so an
// adopted job reports the same numbers it did the moment it finished.
func (j *Job) adoptDone(recs []exp.Record) {
	j.state = StateDone
	for _, r := range recs {
		j.recs = append(j.recs, shardRec{rec: r})
		j.status.ScenarioStarted()
		j.status.ScenarioDone(r)
	}
}

// setState transitions the in-memory state and wakes streaming clients.
func (j *Job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.wake()
	j.mu.Unlock()
}

// finish records a terminal in-memory state.
func (j *Job) finish(state, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.wake()
	j.mu.Unlock()
}

// wake closes and replaces the change channel; callers hold mu.
func (j *Job) wake() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// onRecord is the fanout OnRecord hook: append to the live list, count in
// the live status, wake streamers.
func (j *Job) onRecord(shard int, rec exp.Record) {
	j.status.ScenarioStarted()
	j.status.ScenarioDone(rec)
	j.mu.Lock()
	j.recs = append(j.recs, shardRec{shard: shard, rec: rec})
	j.wake()
	j.mu.Unlock()
}

// onDiscard is the fanout OnDiscard hook: a crashed attempt's records are
// rolled back out of the live list and counters (the retry re-streams
// identical ones). Clients already holding the dropped records simply see
// them again when the retry re-produces them — the snapshot, not the live
// stream, is the canonical artifact.
func (j *Job) onDiscard(shard int, recs []exp.Record) {
	for _, rec := range recs {
		j.status.ScenarioUncounted(rec)
	}
	j.mu.Lock()
	kept := j.recs[:0]
	for _, sr := range j.recs {
		if sr.shard != shard {
			kept = append(kept, sr)
		}
	}
	j.recs = kept
	j.wake()
	j.mu.Unlock()
}

// signalInterrupt delivers one interrupt to the job's fanout tree; a
// buffered channel makes it safe to signal a job whose run has not reached
// (or already passed) fanout.Sweep.
func (j *Job) signalInterrupt() {
	select {
	case j.interrupt <- os.Interrupt:
	default:
	}
}

// view returns the records from index from on (clamped: a retry rollback
// may have shrunk the list), the current state, and a channel that closes
// on the next change — the contract the /records streaming handler loops
// on.
func (j *Job) view(from int) (recs []exp.Record, next int, state string, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from > len(j.recs) {
		from = len(j.recs)
	}
	for _, sr := range j.recs[from:] {
		recs = append(recs, sr.rec)
	}
	return recs, from + len(recs), j.state, j.changed
}

// terminal reports whether state is one no further records can follow.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateInterrupted
}

// Status assembles the wire view of the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	state, errMsg, records := j.state, j.errMsg, len(j.recs)
	j.mu.Unlock()
	return JobStatus{
		ID:               j.ID,
		Matrix:           j.Matrix,
		Shards:           j.Shards,
		State:            state,
		Total:            j.Total,
		Done:             j.status.Done.Load(),
		Failed:           j.status.Failed.Load(),
		InFlight:         j.status.InFlight.Load(),
		Records:          records,
		NodeRoundsPerSec: j.status.NodeRoundsPerSec(),
		Created:          j.Created,
		Error:            errMsg,
	}
}

// readJobFile loads and minimally validates a job dir's job.json.
func readJobFile(dir string) (jobFile, error) {
	data, err := os.ReadFile(filepath.Join(dir, "job.json"))
	if err != nil {
		return jobFile{}, err
	}
	var jf jobFile
	if err := json.Unmarshal(data, &jf); err != nil {
		return jobFile{}, fmt.Errorf("qdcd: %s: %w", dir, err)
	}
	if jf.ID == "" || jf.Shards < 1 || jf.Total < 1 {
		return jobFile{}, fmt.Errorf("qdcd: %s: job file is incomplete", dir)
	}
	if jf.Shards > jf.Total {
		// Submit never writes such a file; re-running one would size the
		// supervisor by an arbitrary shard count.
		return jobFile{}, fmt.Errorf("qdcd: %s: %d shards for %d scenarios", dir, jf.Shards, jf.Total)
	}
	return jf, nil
}

// writeJobFile persists jf into dir atomically enough for the adoption
// scan: a rename is either fully old or fully new, never a torn file.
func writeJobFile(dir string, jf jobFile) error {
	data, err := json.MarshalIndent(jf, "", "  ")
	if err != nil {
		return fmt.Errorf("qdcd: %w", err)
	}
	tmp := filepath.Join(dir, "job.json.tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("qdcd: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "job.json")); err != nil {
		return fmt.Errorf("qdcd: %w", err)
	}
	return nil
}
