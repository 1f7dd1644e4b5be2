package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

type recordingCloser struct {
	closed bool
	err    error
}

func (c *recordingCloser) Close() error {
	c.closed = true
	return c.err
}

// TestJSONLSinkCloseAlwaysCloses pins the descriptor-leak fix: a failing
// flush must still close the underlying file, and the flush error must win.
func TestJSONLSinkCloseAlwaysCloses(t *testing.T) {
	rc := &recordingCloser{err: errors.New("close also failed")}
	s := NewJSONLSink(failWriter{})
	s.closer = rc
	if err := s.Write(Record{Scenario: Scenario{Name: "x"}}); err != nil {
		t.Fatalf("buffered write failed early: %v", err)
	}
	err := s.Close()
	if !rc.closed {
		t.Fatal("a failing flush leaked the file descriptor")
	}
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Close must return the first (flush) error, got %v", err)
	}
}

// TestJSONSinkCloseAlwaysCloses is the same guarantee for the JSON-array
// sink, whose encode happens entirely inside Close.
func TestJSONSinkCloseAlwaysCloses(t *testing.T) {
	rc := &recordingCloser{}
	s := NewJSONSink(failWriter{})
	s.closer = rc
	if err := s.Write(Record{Scenario: Scenario{Name: "x"}}); err != nil {
		t.Fatal(err)
	}
	err := s.Close()
	if !rc.closed {
		t.Fatal("a failing encode leaked the file descriptor")
	}
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Close must return the encode error, got %v", err)
	}
}

func TestJSONLSinkCloseReportsCloserError(t *testing.T) {
	rc := &recordingCloser{err: errors.New("late close error")}
	s := NewJSONLSink(&bytes.Buffer{})
	s.closer = rc
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "late close error") {
		t.Errorf("a clean flush must still surface the close error, got %v", err)
	}
}

// TestJSONSinkCanonicalisesWallClock pins the snapshot canonicalisation the
// shard/merge byte-identity invariant rests on: wall times differ between
// any two runs, so the JSON snapshot zeroes them.
func TestJSONSinkCanonicalisesWallClock(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONSink(&buf)
	rec := Record{Scenario: Scenario{Name: "x"}, WallMillis: 123.456, OK: true}
	if err := s.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var back []Record
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].WallMillis != 0 {
		t.Errorf("snapshot kept a wall time: %+v", back)
	}
}

// TestJSONSinkEmptySnapshot pins the empty-shard case: zero records must
// serialise as an empty array (not JSON null) and load back as zero records.
func TestJSONSinkEmptySnapshot(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONSink(&buf)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Fatalf("empty snapshot serialised as %q, want []", got)
	}
	var back []Record
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil || len(back) != 0 {
		t.Errorf("empty snapshot round-trip: %v, %v", back, err)
	}
}

// TestWriteSnapshotMatchesSink: WriteSnapshot produces the JSONSink bytes
// for the same records and leaves the caller's slice as it was — order,
// wall times and metrics blocks intact.
func TestWriteSnapshotMatchesSink(t *testing.T) {
	recs := []Record{
		{Scenario: Scenario{Name: "b"}, WallMillis: 9, OK: true, Metrics: &ScenarioMetrics{Stages: 1}},
		{Scenario: Scenario{Name: "a"}, WallMillis: 4},
	}
	var want bytes.Buffer
	sink := NewJSONSink(&want)
	for _, r := range recs {
		sink.Write(r) //nolint:errcheck // in-memory
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := WriteSnapshot(path, recs); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("WriteSnapshot wrote\n%s\nwant\n%s", got, want.Bytes())
	}
	if recs[0].Scenario.Name != "b" || recs[0].WallMillis != 9 || recs[0].Metrics == nil || recs[1].WallMillis != 4 {
		t.Errorf("WriteSnapshot changed its input: %+v", recs)
	}
}

// TestCleanCountsRemovals pins the baseline-gate fix: a scenario present in
// the old snapshot but missing from the new one is a regression, not a
// clean diff — a crashed shard or a silently shrunken matrix must fail the
// gate unless the caller explicitly allows removals.
func TestCleanCountsRemovals(t *testing.T) {
	old := []Record{
		{Scenario: Scenario{Name: "kept"}, OK: true},
		{Scenario: Scenario{Name: "lost"}, OK: true},
	}
	diff := Compare(old, old[:1])
	if diff.Clean() {
		t.Error("a diff with removed scenarios must not be clean")
	}
	if !diff.CleanExceptRemoved() {
		t.Error("a removal-only diff must pass the explicit escape hatch")
	}
	if withRegression := (Diff{Regressions: []Delta{{Name: "x"}}}); withRegression.CleanExceptRemoved() {
		t.Error("CleanExceptRemoved must still fail on real regressions")
	}
	if !Compare(old, old).Clean() {
		t.Error("an identical snapshot must stay clean")
	}
}
