package qdcd

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"qdc/internal/exp"
	"qdc/internal/fanout"
)

// testMatrix is the control-plane test sweep: 4 cheap deterministic
// scenarios (2 topologies x 2 algorithms x local x one bandwidth).
func testMatrix() exp.Matrix {
	return exp.Matrix{
		Name: "qdcdtest",
		Topologies: []exp.TopologySpec{
			{Family: exp.FamilyPath, Size: 8},
			{Family: exp.FamilyStar, Size: 9},
		},
		Bandwidths: []int{32},
		Backends:   []string{exp.BackendLocal},
		Algorithms: []string{exp.AlgFlood, exp.AlgVerify},
		BaseSeed:   7,
	}
}

// referenceSnapshot renders the matrix the way an unsharded -json run
// would: every scenario executed in one process, canonical sorted output.
func referenceSnapshot(t *testing.T, m exp.Matrix) []byte {
	t.Helper()
	path := t.TempDir() + "/reference.json"
	sink, err := exp.CreateJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Expand() {
		if err := sink.Write(exp.RunScenario(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// stubWorker blocks in Wait until finished (or killed).
type stubWorker struct {
	done chan struct{}
	err  error
	once sync.Once
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

func (w *stubWorker) Kill()          { w.finish(errors.New("killed")) }
func (w *stubWorker) Output() string { return "" }

// healthySpawn is the in-process stand-in for the qdcbench worker exec: it
// re-loads the job's frozen spec, runs its shard slice, and streams the
// records to the attempt's path — the whole control plane with no
// subprocess.
func healthySpawn(j JobView) fanout.SpawnFunc {
	return func(shard, attempt int, path string) (fanout.Worker, error) {
		w := newStubWorker()
		go func() {
			w.finish(func() error {
				m, err := exp.LoadMatrix(j.SpecPath)
				if err != nil {
					return err
				}
				slice, err := m.Shard(shard, j.Shards)
				if err != nil {
					return err
				}
				sink, err := exp.CreateJSONL(path)
				if err != nil {
					return err
				}
				for _, s := range slice {
					if err := sink.Write(exp.RunScenario(s)); err != nil {
						return err
					}
				}
				return sink.Close()
			}())
		}()
		return w, nil
	}
}

func newTestServer(t *testing.T, stateDir string, spawn SpawnJob) *Server {
	t.Helper()
	s, err := New(Options{StateDir: stateDir, Pool: 4, Spawn: spawn})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// waitTerminal polls the job until it leaves the non-terminal states.
func waitTerminal(t *testing.T, j *Job) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := j.Status()
		if terminal(st.State) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", j.ID, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// get performs a request against the daemon's handler.
func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// TestSubmitToSnapshot is the package's acceptance gate: a job submitted
// over the API runs its shards on the pool and its /snapshot is
// byte-identical to an unsharded run of the same matrix.
func TestSubmitToSnapshot(t *testing.T) {
	m := testMatrix()
	want := referenceSnapshot(t, m)
	s := newTestServer(t, t.TempDir(), healthySpawn)
	h := s.Handler()

	body, _ := json.Marshal(SubmitRequest{Spec: &m, Shards: 2})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("POST /jobs = %d: %s", rec.Code, rec.Body)
	}
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-1" || st.Total != len(m.Expand()) || st.Shards != 2 {
		t.Errorf("submit status = %+v", st)
	}

	j := s.Job(st.ID)
	if fin := waitTerminal(t, j); fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	snap := get(t, h, "/jobs/job-1/snapshot")
	if snap.Code != http.StatusOK {
		t.Fatalf("GET /snapshot = %d: %s", snap.Code, snap.Body)
	}
	if !bytes.Equal(snap.Body.Bytes(), want) {
		t.Error("daemon snapshot is not byte-identical to the unsharded run")
	}

	// The live status endpoints agree once the job is done.
	list := get(t, h, "/jobs")
	var all []JobStatus
	if err := json.Unmarshal(list.Body.Bytes(), &all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].ID != "job-1" || all[0].State != StateDone || all[0].Done != int64(st.Total) {
		t.Errorf("GET /jobs = %+v", all)
	}
	if one := get(t, h, "/jobs/job-1"); one.Code != http.StatusOK || !strings.Contains(one.Body.String(), `"state": "done"`) {
		t.Errorf("GET /jobs/job-1 = %d: %s", one.Code, one.Body)
	}
}

// TestRecordsStreamAndDiff: /records serves every record as JSONL, and
// /diff between two runs of the same spec is clean.
func TestRecordsStreamAndDiff(t *testing.T) {
	m := testMatrix()
	s := newTestServer(t, t.TempDir(), healthySpawn)
	h := s.Handler()
	for i := 0; i < 2; i++ {
		j, err := s.Submit(SubmitRequest{Spec: &m, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitTerminal(t, j); fin.State != StateDone {
			t.Fatalf("job finished %s: %s", fin.State, fin.Error)
		}
	}

	rec := get(t, h, "/jobs/job-1/records")
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("GET /records = %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != len(m.Expand()) {
		t.Fatalf("streamed %d records, want %d", len(lines), len(m.Expand()))
	}
	for _, line := range lines {
		var r exp.Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
	}

	diff := get(t, h, "/jobs/job-2/diff?baseline=job-1")
	if diff.Code != http.StatusOK {
		t.Fatalf("GET /diff = %d: %s", diff.Code, diff.Body)
	}
	var d struct {
		Clean bool `json:"clean"`
	}
	if err := json.Unmarshal(diff.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if !d.Clean {
		t.Errorf("identical jobs diff dirty: %s", diff.Body)
	}
}

// TestRestartAdoptsDoneJob: a new daemon over the same state dir re-serves
// a finished job's snapshot byte for byte without re-running anything.
func TestRestartAdoptsDoneJob(t *testing.T) {
	m := testMatrix()
	state := t.TempDir()
	s1, err := New(Options{StateDir: state, Pool: 4, Spawn: healthySpawn})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Submit(SubmitRequest{Spec: &m, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, j); fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	want := get(t, s1.Handler(), "/jobs/job-1/snapshot").Body.Bytes()
	s1.Close()

	// The adopted job must never spawn a worker; later jobs may.
	s2 := newTestServer(t, state, func(j JobView) fanout.SpawnFunc {
		if j.ID == "job-1" {
			return func(int, int, string) (fanout.Worker, error) {
				t.Error("adopting a done job spawned a worker")
				return nil, errors.New("unexpected spawn")
			}
		}
		return healthySpawn(j)
	})
	adopted := s2.Job("job-1")
	if adopted == nil {
		t.Fatal("restarted daemon does not know job-1")
	}
	st := adopted.Status()
	if st.State != StateDone || st.Done != int64(len(m.Expand())) || st.Records != len(m.Expand()) {
		t.Errorf("adopted status = %+v", st)
	}
	got := get(t, s2.Handler(), "/jobs/job-1/snapshot")
	if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want) {
		t.Error("adopted snapshot differs from the one the first daemon served")
	}
	// A fresh submission continues the id sequence past the adopted job.
	j2, err := s2.Submit(SubmitRequest{Spec: &m, Shards: 1})
	if err == nil && j2.ID == "job-1" {
		t.Error("restarted daemon reused an adopted job id")
	}
}

// TestRestartRerunsDoneJobWithoutSnapshot: a job whose job.json says done
// but whose snapshot.json is gone is re-run from its frozen spec, and the
// re-run serves the snapshot a clean unsharded run produces.
func TestRestartRerunsDoneJobWithoutSnapshot(t *testing.T) {
	m := testMatrix()
	want := referenceSnapshot(t, m)
	state := t.TempDir()
	s1, err := New(Options{StateDir: state, Pool: 4, Spawn: healthySpawn})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Submit(SubmitRequest{Spec: &m, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, j); fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	s1.Close()
	if err := os.Remove(j.snapshotPath()); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, state, healthySpawn)
	rerun := s2.Job("job-1")
	if rerun == nil {
		t.Fatal("restarted daemon does not know job-1")
	}
	if fin := waitTerminal(t, rerun); fin.State != StateDone {
		t.Fatalf("re-run finished %s: %s", fin.State, fin.Error)
	}
	got := get(t, s2.Handler(), "/jobs/job-1/snapshot")
	if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want) {
		t.Error("re-run snapshot is not byte-identical to a clean unsharded run")
	}
}

// TestRestartRerunsInterruptedJob is the crash-recovery gate: a daemon dying
// mid-job leaves no terminal state on disk, and the next daemon re-runs the
// job from its frozen spec to the very snapshot a clean run produces.
func TestRestartRerunsInterruptedJob(t *testing.T) {
	m := testMatrix()
	want := referenceSnapshot(t, m)
	state := t.TempDir()

	// Workers that never finish: the job is mid-sweep until Close kills it.
	spawned := make(chan struct{}, 8)
	s1, err := New(Options{StateDir: state, Pool: 4, Spawn: func(JobView) fanout.SpawnFunc {
		return func(int, int, string) (fanout.Worker, error) {
			spawned <- struct{}{}
			return newStubWorker(), nil
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Submit(SubmitRequest{Spec: &m, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-spawned // at least one worker is live, the job is genuinely mid-sweep
	s1.Close()
	if st := j.Status(); st.State != StateInterrupted {
		t.Fatalf("after Close the job is %s, want interrupted", st.State)
	}

	s2 := newTestServer(t, state, healthySpawn)
	rerun := s2.Job("job-1")
	if rerun == nil {
		t.Fatal("restarted daemon does not know the interrupted job")
	}
	if fin := waitTerminal(t, rerun); fin.State != StateDone {
		t.Fatalf("re-run finished %s: %s", fin.State, fin.Error)
	}
	got := get(t, s2.Handler(), "/jobs/job-1/snapshot")
	if !bytes.Equal(got.Body.Bytes(), want) {
		t.Error("re-run snapshot is not byte-identical to a clean unsharded run")
	}
}

// TestRestartSkipsOversizedJobFile: a state dir holding a job file with more
// shards than scenarios (written before Submit bounded the count) starts
// cleanly. The job is not adopted, so its shard count never reaches the
// supervisor, and the daemon keeps serving new jobs. Its id stays taken: the
// next submission is job-2 and leaves the skipped dir's files alone.
func TestRestartSkipsOversizedJobFile(t *testing.T) {
	m := testMatrix()
	state := t.TempDir()
	dir := filepath.Join(state, "jobs", "job-1")
	if err := os.MkdirAll(filepath.Join(dir, "streams"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := exp.SaveMatrix(filepath.Join(dir, "matrix.json"), m); err != nil {
		t.Fatal(err)
	}
	if err := writeJobFile(dir, jobFile{ID: "job-1", Matrix: m.Name, Shards: 1 << 62, Total: len(m.Expand())}); err != nil {
		t.Fatal(err)
	}
	skipped, err := os.ReadFile(filepath.Join(dir, "job.json"))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, state, healthySpawn)
	if j := s.Job("job-1"); j != nil {
		t.Fatalf("oversized job was adopted in state %s", j.Status().State)
	}
	j, err := s.Submit(SubmitRequest{Spec: &m, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "job-2" {
		t.Errorf("job after the skipped job-1 got id %s, want job-2", j.ID)
	}
	if fin := waitTerminal(t, j); fin.State != StateDone {
		t.Fatalf("job after the skipped one finished %s: %s", fin.State, fin.Error)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "job.json")); err != nil || !bytes.Equal(got, skipped) {
		t.Errorf("the skipped dir's job.json changed (err %v):\n%s", err, got)
	}
}

// TestSubmitValidationAndErrors pins the API's failure modes.
func TestSubmitValidationAndErrors(t *testing.T) {
	m := testMatrix()
	s := newTestServer(t, t.TempDir(), healthySpawn)
	h := s.Handler()

	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", strings.NewReader(body)))
		return rec
	}
	for name, body := range map[string]string{
		"no spec":        `{"shards": 2}`,
		"zero shards":    `{"matrix": "quick", "shards": 0}`,
		"unknown matrix": `{"matrix": "no-such-matrix", "shards": 1}`,
		"unknown field":  `{"matrxi": "quick", "shards": 1}`,
		"negative retry": `{"matrix": "quick", "shards": 1, "retries": -1}`,
		"huge shards":    `{"matrix": "quick", "shards": 4611686018427387904}`,
		// Valid but for its size: 1 MiB of leading whitespace.
		"oversize body": strings.Repeat(" ", maxSubmitBytes) + `{"matrix": "quick", "shards": 1}`,
	} {
		if rec := post(body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: POST /jobs = %d, want 400", name, rec.Code)
		}
	}
	if rec := get(t, h, "/jobs/job-99"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", rec.Code)
	}
	if rec := get(t, h, "/jobs/job-99/snapshot"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job snapshot = %d, want 404", rec.Code)
	}
	if _, err := s.Submit(SubmitRequest{Spec: &exp.Matrix{Name: "empty"}, Shards: 1}); err == nil {
		t.Error("an invalid inline spec must be rejected")
	}
	if _, err := s.Submit(SubmitRequest{Spec: &m, Shards: len(m.Expand()) + 1}); err == nil {
		t.Error("more shards than scenarios must be rejected")
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Errorf("rejected submissions left %d jobs behind", len(jobs))
	}
	if entries, err := os.ReadDir(filepath.Join(s.opts.StateDir, "jobs")); err != nil || len(entries) != 0 {
		t.Errorf("rejected submissions left job dirs behind: %v, %v", entries, err)
	}

	// A snapshot demanded before the job is done is a conflict, not a hang:
	// a separate daemon whose workers never finish pins the job mid-sweep.
	blocked := newTestServer(t, t.TempDir(), func(JobView) fanout.SpawnFunc {
		return func(int, int, string) (fanout.Worker, error) { return newStubWorker(), nil }
	})
	bh := blocked.Handler()
	slow, err := blocked.Submit(SubmitRequest{Spec: &m, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec := get(t, bh, "/jobs/"+slow.ID+"/snapshot"); rec.Code != http.StatusConflict {
		t.Errorf("snapshot of an unfinished job = %d, want 409", rec.Code)
	}
	if rec := get(t, bh, "/jobs/"+slow.ID+"/diff?baseline="+slow.ID); rec.Code != http.StatusConflict {
		t.Errorf("diff of an unfinished job = %d, want 409", rec.Code)
	}
	if rec := get(t, bh, "/jobs/"+slow.ID+"/diff"); rec.Code != http.StatusBadRequest {
		t.Errorf("diff without baseline = %d, want 400", rec.Code)
	}
}

// TestPoolBoundsConcurrency: the worker-pool semaphore caps concurrently
// live workers across jobs at Options.Pool.
func TestPoolBoundsConcurrency(t *testing.T) {
	m := testMatrix()
	var mu sync.Mutex
	live, maxLive := 0, 0
	spawn := func(j JobView) fanout.SpawnFunc {
		inner := healthySpawn(j)
		return func(shard, attempt int, path string) (fanout.Worker, error) {
			mu.Lock()
			live++
			if live > maxLive {
				maxLive = live
			}
			mu.Unlock()
			w, err := inner(shard, attempt, path)
			if err != nil {
				return nil, err
			}
			time.Sleep(5 * time.Millisecond) // hold the slot long enough to overlap
			return &countedWorker{Worker: w, dec: func() {
				mu.Lock()
				live--
				mu.Unlock()
			}}, nil
		}
	}
	s, err := New(Options{StateDir: t.TempDir(), Pool: 2, Spawn: spawn})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(SubmitRequest{Spec: &m, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if fin := waitTerminal(t, j); fin.State != StateDone {
			t.Fatalf("job %s finished %s: %s", j.ID, fin.State, fin.Error)
		}
	}
	if maxLive > 2 {
		t.Errorf("pool of 2 had %d concurrently live workers", maxLive)
	}
}

type countedWorker struct {
	fanout.Worker
	dec func()
}

func (w *countedWorker) Wait() error {
	err := w.Worker.Wait()
	w.dec()
	return err
}
