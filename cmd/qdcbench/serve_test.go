package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"qdc/internal/exp"
	"qdc/internal/fanout"
	"qdc/internal/qdcd"
)

// inprocJobSpawn hands a daemon built directly in a test the workers
// runServe would: workerSpawn's argv against the job's frozen spec, run
// in-process through the test seam.
func inprocJobSpawn(t *testing.T) qdcd.SpawnJob {
	t.Helper()
	withTestSpawn(t, inprocSpawn)
	spawnFor, err := workerSpawn(0, exp.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	return func(j qdcd.JobView) fanout.SpawnFunc { return spawnFor(j.SpecPath, j.Shards) }
}

// TestSubmitRoundTrip drives the client against a live daemon handler: the
// submitted sweep runs on the pool, -wait polls it out, and the downloaded
// snapshot is byte-identical to an unsharded -json run.
func TestSubmitRoundTrip(t *testing.T) {
	dir := t.TempDir()
	unsharded := filepath.Join(dir, "unsharded.json")
	fetched := filepath.Join(dir, "fetched.json")

	var out bytes.Buffer
	if err := run([]string{"-matrix", "quick", "-json", unsharded}, &out); err != nil {
		t.Fatal(err)
	}
	srv, err := qdcd.New(qdcd.Options{StateDir: filepath.Join(dir, "state"), Pool: 4, Spawn: inprocJobSpawn(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := run([]string{"submit", "-addr", ts.URL, "-matrix", "quick", "-shards", "2", "-poll", "5ms", "-json", fetched}, &out); err != nil {
		t.Fatalf("submit: %v\n%s", err, out.String())
	}
	want, _ := os.ReadFile(unsharded)
	got, _ := os.ReadFile(fetched)
	if !bytes.Equal(got, want) {
		t.Error("snapshot fetched through the daemon is not byte-identical to the unsharded run")
	}
	for _, marker := range []string{"submitted job-1", "job job-1 done", "snapshot written to"} {
		if !strings.Contains(out.String(), marker) {
			t.Errorf("submit output missing %q:\n%s", marker, out.String())
		}
	}

	// A *.json spec path is loaded client-side and submitted inline.
	spec := filepath.Join(dir, "spec.json")
	const specJSON = `{
  "name": "inline",
  "topologies": [{"family": "path", "size": 9}],
  "bandwidths": [32],
  "backends": ["local"],
  "algorithms": ["verify"],
  "base_seed": 3
}`
	if err := os.WriteFile(spec, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"submit", "-addr", ts.URL, "-matrix", spec, "-shards", "1", "-poll", "5ms", "-wait"}, &out); err != nil {
		t.Fatalf("submit inline spec: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "matrix inline") {
		t.Errorf("inline spec submit output:\n%s", out.String())
	}
}

// TestServeRoundTrip runs the real serve loop (ephemeral port, in-process
// workers, test interrupt channel) and round-trips one sweep through it.
func TestServeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	unsharded := filepath.Join(dir, "unsharded.json")
	fetched := filepath.Join(dir, "fetched.json")
	var setup bytes.Buffer
	if err := run([]string{"-matrix", "quick", "-json", unsharded}, &setup); err != nil {
		t.Fatal(err)
	}

	withTestSpawn(t, inprocSpawn)
	testServeInterrupt = make(chan os.Signal, 1)
	t.Cleanup(func() { testServeInterrupt = nil })

	var out syncBuffer
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- runServe([]string{"-listen", "127.0.0.1:0", "-state", filepath.Join(dir, "state")}, &out)
	}()

	// The serving line carries the ephemeral address.
	addrRe := regexp.MustCompile(`on (http://[0-9.:]+) `)
	var addr string
	for i := 0; i < 1000 && addr == ""; i++ {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if addr == "" {
		t.Fatalf("serve never printed its address:\n%s", out.String())
	}

	var cli bytes.Buffer
	if err := run([]string{"submit", "-addr", addr, "-matrix", "quick", "-shards", "2", "-poll", "5ms", "-json", fetched}, &cli); err != nil {
		t.Fatalf("submit against serve: %v\n%s", err, cli.String())
	}
	want, _ := os.ReadFile(unsharded)
	got, _ := os.ReadFile(fetched)
	if !bytes.Equal(got, want) {
		t.Error("snapshot served by runServe is not byte-identical to the unsharded run")
	}

	testServeInterrupt <- os.Interrupt
	if err := <-serveErr; err != nil {
		t.Fatalf("runServe returned %v", err)
	}
}

// TestServeSubmitFlagValidation pins both subcommands' argument contracts.
func TestServeSubmitFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"serve", "stray"}, &out); err == nil || !strings.Contains(err.Error(), "positional") {
		t.Errorf("serve with a stray arg: err = %v", err)
	}
	if err := run([]string{"submit", "stray"}, &out); err == nil || !strings.Contains(err.Error(), "positional") {
		t.Errorf("submit with a stray arg: err = %v", err)
	}
	if err := run([]string{"submit", "-matrix", "no-such-file.json"}, &out); err == nil {
		t.Error("submit with an unresolvable matrix must fail before any request")
	}
}
