package exp

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestTailStreamsCompletedLines drives the live-tail contract: records
// appear as their lines complete, a half-written trailing line is never
// surfaced, and a missing file reads as an empty stream.
func TestTailStreamsCompletedLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.jsonl")
	tail := NewTail(path)
	defer tail.Close()

	// The worker has not created the file yet.
	if recs, err := tail.Poll(); err != nil || len(recs) != 0 {
		t.Fatalf("missing file: recs=%v err=%v, want empty", recs, err)
	}

	mk := func(name string) []byte {
		r := Record{OK: true}
		r.Scenario.Name = name
		line, _ := json.Marshal(r)
		return append(line, '\n')
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	write := func(b []byte) {
		t.Helper()
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
	}

	// One complete record plus the first half of a second one.
	second := mk("two")
	write(mk("one"))
	write(second[:10])
	recs, err := tail.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Scenario.Name != "one" {
		t.Fatalf("first poll = %v, want exactly the one complete record", recs)
	}
	if !tail.Pending() {
		t.Error("a half-written line must report as pending")
	}

	// Completing the second line surfaces it on the next poll.
	write(second[10:])
	recs, err = tail.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Scenario.Name != "two" {
		t.Fatalf("second poll = %v, want the completed record", recs)
	}
	if tail.Pending() {
		t.Error("no partial bytes remain, Pending must be false")
	}

	// A corrupt completed line is a permanent error.
	write([]byte("{\"scenario\": TRUNC}\n"))
	if _, err := tail.Poll(); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("corrupt line error = %v, want one naming the stream", err)
	}
}

// TestTailDetectsTruncation pins the truncation contract: a stream file
// that shrinks below the bytes already consumed (a worker wrapper recreated
// the file, an operator truncated it) is a permanent ErrTruncated, sticky
// across polls — not a silent empty read that would let the supervisor
// judge the shard complete on bytes that no longer exist.
func TestTailDetectsTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.jsonl")
	tail := NewTail(path)
	defer tail.Close()

	mk := func(name string) []byte {
		r := Record{OK: true}
		r.Scenario.Name = name
		line, _ := json.Marshal(r)
		return append(line, '\n')
	}
	if err := os.WriteFile(path, append(mk("one"), mk("two")...), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := tail.Poll()
	if err != nil || len(recs) != 2 {
		t.Fatalf("first poll: recs=%v err=%v, want both records", recs, err)
	}

	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tail.Poll(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("poll after truncation = %v, want ErrTruncated", err)
	}
	if _, err := tail.Poll(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("repeated poll = %v, want the sticky ErrTruncated", err)
	}
}

// FuzzTailPoll feeds arbitrary bytes to Tail.Poll as a stream written in
// two appends, split at a fuzzed offset, with a poll after each. Polling
// must never panic. Where one poll over the whole stream returns no error,
// the two polls together must return the same records with no error,
// wherever the split falls: a line cut in two is carried over, never
// decoded half-written. MergeRecords must then sort the decoded records by
// name, or refuse a duplicated name. The seeds are the golden stream, the
// same stream with its last line torn, blank lines only, and a stream that
// names one scenario twice.
func FuzzTailPoll(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "records_golden.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.SplitAfter(string(golden), "\n")
	last := lines[len(lines)-2]
	f.Add(golden, len(golden)/2)
	f.Add(golden[:len(golden)-len(last)/2], len(lines[0])+3)
	f.Add([]byte("\n \n\t\n\n"), 2)
	f.Add([]byte(lines[0]+lines[1]+lines[0]), len(lines[0]))
	f.Fuzz(func(t *testing.T, data []byte, split int) {
		dir := t.TempDir()
		whole := filepath.Join(dir, "whole.jsonl")
		if err := os.WriteFile(whole, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ref := NewTail(whole)
		defer ref.Close()
		want, wantErr := ref.Poll()

		path := filepath.Join(dir, "stream.jsonl")
		out, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		tail := NewTail(path)
		defer tail.Close()
		k := int(uint(split) % uint(len(data)+1))
		var got []Record
		var errs []error
		for _, part := range [][]byte{data[:k], data[k:]} {
			if _, err := out.Write(part); err != nil {
				t.Fatal(err)
			}
			recs, err := tail.Poll()
			got = append(got, recs...)
			errs = append(errs, err)
		}
		if wantErr == nil {
			if errs[0] != nil || errs[1] != nil {
				t.Fatalf("split at %d: polls returned %v; one poll over the whole stream returned none", k, errs)
			}
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("split at %d: polls returned %d records, one poll %d:\n got %+v\nwant %+v", k, len(got), len(want), got, want)
			}
		}

		merged, err := MergeRecords(want)
		seen := map[string]bool{}
		dup := false
		for _, r := range want {
			dup = dup || seen[r.Scenario.Name]
			seen[r.Scenario.Name] = true
		}
		switch {
		case dup:
			if err == nil || !strings.Contains(err.Error(), "appears twice within shard 1") {
				t.Fatalf("records that name a scenario twice merged with error %v", err)
			}
		case err != nil:
			t.Fatalf("MergeRecords refused %d distinct records: %v", len(want), err)
		case len(merged) != len(want) || !sort.SliceIsSorted(merged, func(i, j int) bool {
			return merged[i].Scenario.Name < merged[j].Scenario.Name
		}):
			t.Fatalf("MergeRecords returned %d records, not the %d it was given sorted by name", len(merged), len(want))
		}
	})
}
