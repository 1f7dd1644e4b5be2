package exp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Sink consumes Records as the executor produces them. Execute serialises
// all Write calls onto one goroutine, so implementations need no locking.
type Sink interface {
	Write(Record) error
	// Close flushes buffered output; file-backed sinks also close the file.
	Close() error
}

// Collect is the in-memory sink, used for summaries and Compare.
type Collect struct {
	Records []Record
}

// Write implements Sink.
func (c *Collect) Write(r Record) error {
	c.Records = append(c.Records, r)
	return nil
}

// Close implements Sink.
func (c *Collect) Close() error { return nil }

// JSONLSink streams one JSON object per line in completion order — the
// append-friendly format for long sweeps watched with tail -f.
type JSONLSink struct {
	w      *bufio.Writer
	closer io.Closer
}

// NewJSONLSink wraps an open writer; CreateJSONL opens a file.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: bufio.NewWriter(w)} }

// CreateJSONL creates (or truncates) path and returns a JSONL sink over it.
func CreateJSONL(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := NewJSONLSink(f)
	s.closer = f
	return s, nil
}

// Write implements Sink.
func (s *JSONLSink) Write(r Record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if _, err := s.w.Write(line); err != nil {
		return err
	}
	return s.w.WriteByte('\n')
}

// Close implements Sink. The underlying file is closed even when the flush
// fails, so an encoding error never leaks the descriptor; the first error
// wins.
func (s *JSONLSink) Close() error {
	err := s.w.Flush()
	if s.closer != nil {
		if cerr := s.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// JSONSink buffers every record and writes a single canonical JSON array on
// Close: records sorted by scenario name and WallMillis zeroed, so the file
// bytes are a pure function of the records' deterministic fields regardless
// of completion order, host speed, or how many processes produced them.
// This is the format BENCH_*.json snapshots use, and the canonicalisation is
// what makes a merged sharded run byte-identical to an unsharded one
// (per-run wall times remain available in the JSONL stream and the printed
// summary).
type JSONSink struct {
	w       io.Writer
	closer  io.Closer
	records []Record
}

// NewJSONSink wraps an open writer; CreateJSON opens a file.
func NewJSONSink(w io.Writer) *JSONSink { return &JSONSink{w: w} }

// CreateJSON creates (or truncates) path and returns a JSON-array sink.
func CreateJSON(path string) (*JSONSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &JSONSink{w: f, closer: f}, nil
}

// Write implements Sink.
func (s *JSONSink) Write(r Record) error {
	s.records = append(s.records, r)
	return nil
}

// Close implements Sink. The underlying file is closed even when the encode
// fails, so an encoding error never leaks the descriptor; the first error
// wins.
func (s *JSONSink) Close() error {
	if s.records == nil {
		// An empty snapshot (e.g. a shard wider than the expansion) must be
		// an empty array, not JSON null — ReadRecords would misparse null as
		// a JSONL stream holding one zero record.
		s.records = []Record{}
	}
	sort.Slice(s.records, func(i, j int) bool { return s.records[i].Scenario.Name < s.records[j].Scenario.Name })
	for i := range s.records {
		s.records[i].WallMillis = 0
		// Metrics are deterministic but optional: stripping them keeps a
		// snapshot's bytes identical whether or not the sweep collected
		// metrics, so baseline diffs never churn on observability settings.
		s.records[i].Metrics = nil
		// The heap high-water mark is host-dependent like wall time, so it
		// lives in the printed roundbench table and the JSONL stream, never
		// in a canonical snapshot (re-running roundbench -append must not
		// change a byte when the deterministic costs are unchanged).
		s.records[i].PeakHeapBytes = 0
	}
	enc := json.NewEncoder(s.w)
	enc.SetIndent("", "  ")
	err := enc.Encode(s.records)
	if s.closer != nil {
		if cerr := s.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// WriteSnapshot writes recs to path as a canonical snapshot: the bytes a
// JSONSink fed the same records produces, which for a sweep's records are
// the bytes of an unsharded -json run. recs itself is left untouched.
func WriteSnapshot(path string, recs []Record) error {
	sink, err := CreateJSON(path)
	if err != nil {
		return err
	}
	sink.records = append([]Record{}, recs...)
	return sink.Close()
}

// ReadRecords loads a results file written by either sink: a JSON array or
// JSONL, sniffed from the first non-space byte.
func ReadRecords(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var recs []Record
		if err := json.Unmarshal(trimmed, &recs); err != nil {
			return nil, fmt.Errorf("exp: %s: %w", path, err)
		}
		return recs, nil
	}
	var recs []Record
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	for dec.More() {
		var r Record
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("exp: %s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// Delta is one scenario-level difference between two result sets.
type Delta struct {
	// Name is the scenario name the old and new records were matched by.
	Name string `json:"name"`
	// Kind is "verdict", "rounds", "bits" or "missing".
	Kind string `json:"kind"`
	Old  string `json:"old"`
	New  string `json:"new"`
}

func (d Delta) String() string {
	return fmt.Sprintf("%s: %s %s -> %s", d.Name, d.Kind, d.Old, d.New)
}

// Diff is the result of comparing an old results file against a new one.
type Diff struct {
	// Regressions are scenarios that got worse: a passing run now failing,
	// or a deterministic cost (rounds, bits) that grew.
	Regressions []Delta `json:"regressions,omitempty"`
	// Improvements are deterministic costs that shrank.
	Improvements []Delta `json:"improvements,omitempty"`
	// Added and Removed are scenario names present on only one side.
	Added   []string `json:"added,omitempty"`
	Removed []string `json:"removed,omitempty"`
	// DuplicateOld and DuplicateNew name scenarios appearing more than once
	// on the old or new side. A canonical snapshot never contains duplicates
	// (MergeRecords rejects them), so a duplicate means the input was
	// assembled by hand — concatenated files, the same shard twice — and any
	// cost comparison over it is built on an arbitrary choice of copy. The
	// diff surfaces them instead of silently keeping the last old copy and
	// double-counting new ones, and Clean fails on them.
	DuplicateOld []string `json:"duplicate_old,omitempty"`
	DuplicateNew []string `json:"duplicate_new,omitempty"`
}

// duplicated reports whether either side held a scenario name twice.
func (d Diff) duplicated() bool { return len(d.DuplicateOld) > 0 || len(d.DuplicateNew) > 0 }

// Clean reports whether the diff contains no regressions, no removals and
// no duplicated scenario names. A scenario missing from the new snapshot
// counts as a regression: a shrunken matrix, a crashed shard, or a merge
// that lost records would otherwise sail through a baseline gate that only
// watched costs grow. Callers that intend the shrink (a deliberate matrix
// edit) can accept a removal-only diff via CleanExceptRemoved.
func (d Diff) Clean() bool {
	return len(d.Regressions) == 0 && len(d.Removed) == 0 && !d.duplicated()
}

// CleanExceptRemoved reports whether the diff is clean apart from removed
// scenarios — the escape hatch for intentional matrix shrinks (qdcbench
// -allow-removed). Duplicates are never acceptable: they make the whole
// comparison unreliable, not just one scenario's row.
func (d Diff) CleanExceptRemoved() bool { return len(d.Regressions) == 0 && !d.duplicated() }

// Compare matches records by scenario name and reports how the new results
// moved relative to the old ones. Because every scenario is deterministic
// given its seed, *any* growth in rounds or bits between snapshots of the
// same matrix is a genuine algorithmic regression, not noise; wall-clock
// time is deliberately ignored. A name appearing more than once on either
// side is reported in DuplicateOld/DuplicateNew (the first copy is the one
// compared), and a diff with duplicates is never Clean.
func Compare(old, new []Record) Diff {
	var diff Diff
	oldBy := make(map[string]Record, len(old))
	for _, r := range old {
		if _, dup := oldBy[r.Scenario.Name]; dup {
			diff.DuplicateOld = appendName(diff.DuplicateOld, r.Scenario.Name)
			continue
		}
		oldBy[r.Scenario.Name] = r
	}
	seen := make(map[string]bool, len(new))
	for _, nr := range new {
		if seen[nr.Scenario.Name] {
			diff.DuplicateNew = appendName(diff.DuplicateNew, nr.Scenario.Name)
			continue
		}
		seen[nr.Scenario.Name] = true
		or, ok := oldBy[nr.Scenario.Name]
		if !ok {
			diff.Added = append(diff.Added, nr.Scenario.Name)
			continue
		}
		if !or.Failed() && nr.Failed() {
			diff.Regressions = append(diff.Regressions, Delta{
				Name: nr.Scenario.Name, Kind: "verdict",
				Old: "ok", New: failureText(nr),
			})
			continue
		}
		if or.Failed() || nr.Failed() {
			continue
		}
		diff.Regressions = append(diff.Regressions, costDeltas(nr.Scenario.Name, or, nr, true)...)
		diff.Improvements = append(diff.Improvements, costDeltas(nr.Scenario.Name, or, nr, false)...)
	}
	for _, or := range old {
		if !seen[or.Scenario.Name] {
			diff.Removed = append(diff.Removed, or.Scenario.Name)
		}
	}
	sort.Slice(diff.Regressions, func(i, j int) bool { return diff.Regressions[i].Name < diff.Regressions[j].Name })
	sort.Slice(diff.Improvements, func(i, j int) bool { return diff.Improvements[i].Name < diff.Improvements[j].Name })
	sort.Strings(diff.Added)
	sort.Strings(diff.Removed)
	sort.Strings(diff.DuplicateOld)
	sort.Strings(diff.DuplicateNew)
	return diff
}

// appendName appends name if the (small) list does not already hold it, so
// a scenario occurring three times is still reported once.
func appendName(names []string, name string) []string {
	for _, n := range names {
		if n == name {
			return names
		}
	}
	return append(names, name)
}

func failureText(r Record) string {
	if r.Error != "" {
		return "error: " + r.Error
	}
	return "verdict mismatch: " + r.Detail
}

func costDeltas(name string, old, new Record, worse bool) []Delta {
	var out []Delta
	add := func(kind string, o, n int64) {
		if (worse && n > o) || (!worse && n < o) {
			out = append(out, Delta{Name: name, Kind: kind, Old: fmt.Sprint(o), New: fmt.Sprint(n)})
		}
	}
	add("rounds", int64(old.Stats.Rounds), int64(new.Stats.Rounds))
	add("bits", old.Stats.Bits, new.Stats.Bits)
	return out
}
