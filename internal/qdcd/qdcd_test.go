package qdcd

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
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

// overCapMatrix is a valid spec of 64 paths × 52 bandwidths × 4 backends
// × 5 algorithms, 66,560 cells: more than exp.MaxMatrixCells.
func overCapMatrix() exp.Matrix {
	m := testMatrix()
	m.Topologies, m.Bandwidths = nil, nil
	for i := range 64 {
		m.Topologies = append(m.Topologies, exp.TopologySpec{Family: exp.FamilyPath, Size: i + 2})
	}
	for b := range 52 {
		m.Bandwidths = append(m.Bandwidths, b+1)
	}
	m.Backends = []string{exp.BackendLocal, exp.BackendParallel, exp.BackendSimulation, exp.BackendQuantum}
	m.Algorithms = []string{exp.AlgVerify, exp.AlgMST, exp.AlgMSTApprox, exp.AlgDisjointness, exp.AlgFlood}
	return m
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
// but whose snapshot.json is gone, cut off mid-record, or short of a record
// its frozen spec expands to is re-run from that spec, and the re-run
// serves the snapshot a clean unsharded run produces.
func TestRestartRerunsDoneJobWithoutSnapshot(t *testing.T) {
	m := testMatrix()
	want := referenceSnapshot(t, m)
	for _, tc := range []struct {
		name  string
		spoil func(path string) error
	}{
		{"missing", os.Remove},
		{"torn", func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, data[:bytes.LastIndex(data, []byte(`"name"`))+3], 0o644)
		}},
		{"incomplete", func(path string) error {
			recs, err := exp.ReadRecords(path)
			if err != nil {
				return err
			}
			return exp.WriteSnapshot(path, recs[1:])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
			if err := tc.spoil(j.snapshotPath()); err != nil {
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
				t.Errorf("snapshot served with status %d is not byte-identical to a clean unsharded run", got.Code)
			}
		})
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

// TestRestartRerunsJobPastGapAndStrayStream covers two more partial state
// dirs at once: a gap in the id sequence, and a torn stream the dead daemon
// left in an interrupted job's streams dir. The state dir holds a done
// job-1 and an interrupted job-3, with job-2 gone. A restarted daemon
// adopts job-1, re-runs job-3 to the clean unsharded snapshot without
// reading the stray stream, and gives the next submission job-4.
func TestRestartRerunsJobPastGapAndStrayStream(t *testing.T) {
	m := testMatrix()
	want := referenceSnapshot(t, m)
	state := t.TempDir()

	// job-3's workers never finish: it is mid-sweep until Close kills it.
	spawned := make(chan struct{}, 8)
	s1, err := New(Options{StateDir: state, Pool: 4, Spawn: func(j JobView) fanout.SpawnFunc {
		if j.ID != "job-3" {
			return healthySpawn(j)
		}
		return func(int, int, string) (fanout.Worker, error) {
			spawned <- struct{}{}
			return newStubWorker(), nil
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		j, err := s1.Submit(SubmitRequest{Spec: &m, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitTerminal(t, j); fin.State != StateDone {
			t.Fatalf("%s finished %s: %s", j.ID, fin.State, fin.Error)
		}
	}
	interrupted, err := s1.Submit(SubmitRequest{Spec: &m, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-spawned
	s1.Close()
	if interrupted.ID != "job-3" {
		t.Fatalf("third job got id %s, want job-3", interrupted.ID)
	}
	if err := os.RemoveAll(filepath.Join(state, "jobs", "job-2")); err != nil {
		t.Fatal(err)
	}
	// One whole record and a torn one, as a worker killed mid-write leaves
	// its stream.
	scenarios := m.Expand()
	first, err := json.Marshal(exp.RunScenario(scenarios[0]))
	if err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(exp.RunScenario(scenarios[1]))
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append(first, '\n'), second[:len(second)/2]...)
	if err := os.WriteFile(filepath.Join(interrupted.streamDir(), "shard-1-attempt-1.jsonl"), torn, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, state, healthySpawn)
	if st := s2.Job("job-1").Status(); st.State != StateDone {
		t.Errorf("job-1 is %s after the restart, want done", st.State)
	}
	if j := s2.Job("job-2"); j != nil {
		t.Errorf("the removed job-2 is known again, in state %s", j.Status().State)
	}
	rerun := s2.Job("job-3")
	if rerun == nil {
		t.Fatal("restarted daemon does not know the interrupted job-3")
	}
	if fin := waitTerminal(t, rerun); fin.State != StateDone {
		t.Fatalf("re-run finished %s: %s", fin.State, fin.Error)
	}
	if got := get(t, s2.Handler(), "/jobs/job-3/snapshot"); !bytes.Equal(got.Body.Bytes(), want) {
		t.Error("re-run snapshot is not byte-identical to a clean unsharded run")
	}
	next, err := s2.Submit(SubmitRequest{Spec: &m, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "job-4" {
		t.Errorf("the submission after job-3 got id %s, want job-4", next.ID)
	}
	waitTerminal(t, next)
}

// TestRestartSkipsOversizedJobFile: a state dir whose job-1 holds no
// adoptable job file starts cleanly. The cases are a job file with more
// shards than scenarios (written before Submit bounded the count), so its
// shard count never reaches the supervisor; a torn job.json, cut off
// mid-object, beside the complete job.json.tmp of a write that never
// renamed it; an empty job.json; and a job file that names job-9, as a dir
// restored or copied under another name holds. The job is not adopted,
// under either name, and the daemon keeps serving new jobs. Its id stays
// taken: the next submission is job-2, the only job the daemon lists, and
// leaves every file of the skipped dir as it was.
func TestRestartSkipsOversizedJobFile(t *testing.T) {
	m := testMatrix()
	valid := jobFile{ID: "job-1", Matrix: m.Name, Shards: 2, Total: len(m.Expand())}
	for _, c := range []struct {
		name string
		// write leaves job-1's job files in dir.
		write func(t *testing.T, dir string)
	}{
		{"oversized", func(t *testing.T, dir string) {
			oversized := valid
			oversized.Shards = 1 << 62
			if err := writeJobFile(dir, oversized); err != nil {
				t.Fatal(err)
			}
		}},
		{"torn", func(t *testing.T, dir string) {
			if err := writeJobFile(dir, valid); err != nil {
				t.Fatal(err)
			}
			whole, err := os.ReadFile(filepath.Join(dir, "job.json"))
			if err != nil {
				t.Fatal(err)
			}
			writeFile(t, filepath.Join(dir, "job.json.tmp"), whole)
			writeFile(t, filepath.Join(dir, "job.json"), whole[:len(whole)/2])
		}},
		{"empty", func(t *testing.T, dir string) {
			writeFile(t, filepath.Join(dir, "job.json"), nil)
		}},
		{"another id", func(t *testing.T, dir string) {
			renamed := valid
			renamed.ID = "job-9"
			if err := writeJobFile(dir, renamed); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			state := t.TempDir()
			dir := filepath.Join(state, "jobs", "job-1")
			if err := os.MkdirAll(filepath.Join(dir, "streams"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := exp.SaveMatrix(filepath.Join(dir, "matrix.json"), m); err != nil {
				t.Fatal(err)
			}
			c.write(t, dir)
			skipped := dirContents(t, dir)
			s := newTestServer(t, state, healthySpawn)
			if j := s.Job("job-1"); j != nil {
				t.Fatalf("job-1 was adopted in state %s", j.Status().State)
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
			if jobs := s.Jobs(); len(jobs) != 1 {
				t.Errorf("the daemon lists %d jobs, want only job-2", len(jobs))
			}
			if got := dirContents(t, dir); !reflect.DeepEqual(got, skipped) {
				t.Errorf("the skipped dir changed:\nbefore %q\nafter  %q", skipped, got)
			}
		})
	}
}

// writeFile writes data to path.
func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// dirContents maps every file and directory under dir, by its path
// relative to dir, to the file's bytes ("" for a directory).
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			files[path[len(dir):]] = ""
			return err
		}
		data, err := os.ReadFile(path)
		files[path[len(dir):]] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
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
	// An lbnet the simulator could never index, refused before anything
	// builds it.
	lbnet := `{"spec": {"topologies": [{"family": "lbnet", "size": 65536}], "bandwidths": [64],
		"backends": ["local"], "algorithms": ["verify"]}, "shards": 1}`
	if rec := post(lbnet); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "4296933407 edges") {
		t.Errorf("POST /jobs of an lbnet with 4,296,933,407 edges = %d %s, want 400", rec.Code, rec.Body)
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
	wide := overCapMatrix()
	if _, err := s.Submit(SubmitRequest{Spec: &wide, Shards: 1}); err == nil || !strings.Contains(err.Error(), "cells") {
		t.Errorf("an inline spec over exp.MaxMatrixCells: %v", err)
	}
	body, err := json.Marshal(SubmitRequest{Spec: &wide, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec := post(string(body)); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "cells") {
		t.Errorf("POST /jobs of a %d-byte spec over the cap = %d %s, want 400", len(body), rec.Code, rec.Body)
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
