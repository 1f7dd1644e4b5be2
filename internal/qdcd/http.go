package qdcd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"

	"qdc/internal/exp"
	"qdc/internal/obs"
)

// Handler returns the daemon's HTTP API, mounted on the same obs mux a
// local sweep serves (/debug/pprof, /debug/vars, /vars with the daemon's
// job counters, /progress with every job's live status):
//
//	POST /jobs                submit a job (SubmitRequest body)
//	GET  /jobs                every job's JobStatus, submission order
//	GET  /jobs/{id}           one job's JobStatus
//	GET  /jobs/{id}/records   chunked JSONL stream of records, live-followed
//	                          until the job reaches a terminal state
//	GET  /jobs/{id}/snapshot  the canonical merged snapshot (byte-identical
//	                          to an unsharded -json run; 409 until done)
//	GET  /jobs/{id}/diff?baseline=<id>  exp.Compare against another done job
func (s *Server) Handler() http.Handler {
	mux := obs.NewMux(s.reg, s.progress)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{$}", s.handleList)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("POST /jobs/{$}", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/records", s.handleRecords)
	mux.HandleFunc("GET /jobs/{id}/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /jobs/{id}/diff", s.handleDiff)
	return mux
}

// progress is the daemon's /progress payload: one JobStatus per job, the
// multi-job analogue of a local sweep's single progress map.
func (s *Server) progress() any {
	jobs := s.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	return map[string]any{"jobs": out}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// lookup resolves the {id} path value, writing the 404 itself when the
// job does not exist.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	j := s.Job(id)
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("qdcd: no job %q", id))
	}
	return j
}

// maxSubmitBytes bounds a POST /jobs body; an inline spec is a few KiB.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("qdcd: request body: %w", err))
		return
	}
	j, err := s.Submit(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, j.Status())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

// handleRecords streams the job's records as chunked JSONL: everything
// streamed so far immediately, then live as shard lines complete, until
// the job reaches a terminal state or the client goes away. A shard retry
// may re-deliver records the crashed attempt already streamed (records
// are deterministic, so the copies are identical); the snapshot is the
// canonical artifact.
func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	next := 0
	for {
		recs, n, state, changed := j.view(next)
		next = n
		for _, rec := range recs {
			if err := enc.Encode(rec); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if terminal(state) {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	st := j.Status()
	if st.State != StateDone {
		writeError(w, http.StatusConflict,
			fmt.Errorf("qdcd: job %s is %s; the snapshot exists once it is done", j.ID, st.State))
		return
	}
	f, err := os.Open(j.snapshotPath())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	defer f.Close() //nolint:errcheck // read-only descriptor
	// Raw bytes, not re-encoded: the endpoint's contract is byte identity
	// with the unsharded run's -json file.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	io.Copy(w, f) //nolint:errcheck // the response is already committed
}

// handleDiff compares the job's snapshot against another done job's —
// exp.Compare over the API, so clients gate on regressions without
// downloading either snapshot.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	baseID := r.URL.Query().Get("baseline")
	if baseID == "" {
		writeError(w, http.StatusBadRequest, errors.New("qdcd: diff needs ?baseline=<job id>"))
		return
	}
	base := s.Job(baseID)
	if base == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("qdcd: no baseline job %q", baseID))
		return
	}
	for _, side := range []*Job{j, base} {
		if side.Status().State != StateDone {
			writeError(w, http.StatusConflict, fmt.Errorf("qdcd: job %s is not done", side.ID))
			return
		}
	}
	oldRecs, err := exp.ReadRecords(base.snapshotPath())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	newRecs, err := exp.ReadRecords(j.snapshotPath())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	diff := exp.Compare(oldRecs, newRecs)
	writeJSON(w, http.StatusOK, map[string]any{
		"baseline": base.ID,
		"job":      j.ID,
		"clean":    diff.Clean(),
		"diff":     diff,
	})
}
