package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// Event is one line of an event log: a monotonically increasing sequence
// number, the milliseconds elapsed since the log was opened, the event
// kind, and an arbitrary JSON payload.
type Event struct {
	Seq int64 `json:"seq"`
	// ElapsedMillis is wall-clock time since the log was opened. It is the
	// one non-deterministic field of an event — event logs are operational
	// records of a run, not canonical snapshots, and are never diffed for
	// byte identity.
	ElapsedMillis float64 `json:"elapsed_ms"`
	Kind          string  `json:"event"`
	Data          any     `json:"data,omitempty"`
}

// EventLog is a thread-safe JSONL event stream: each Emit appends one Event
// line. Sweeps use it as the machine-readable companion of the human
// progress output — `tail -f` the file, or parse it after the run (the CI
// observability smoke job uploads it as an artifact). The log keeps its
// first Emit error for Close, so callers emitting from many goroutines can
// ignore Emit's result and still learn of a lost line. A nil *EventLog is a
// disabled log: Emit and Close do nothing.
type EventLog struct {
	mu     sync.Mutex
	w      *bufio.Writer
	closer io.Closer
	seq    int64
	start  time.Time
	err    error            // first Emit error, reported again by Close
	now    func() time.Time // test hook; defaults to time.Now
}

// NewEventLog wraps an open writer; CreateEventLog opens a file.
func NewEventLog(w io.Writer) *EventLog {
	l := &EventLog{w: bufio.NewWriter(w), now: time.Now}
	l.start = l.now()
	return l
}

// CreateEventLog creates (or truncates) path and returns an event log over
// it.
func CreateEventLog(path string) (*EventLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	l := NewEventLog(f)
	l.closer = f
	return l, nil
}

// Emit appends one event line. Safe for concurrent use.
func (l *EventLog) Emit(kind string, data any) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	ev := Event{
		Seq:           l.seq,
		ElapsedMillis: float64(l.now().Sub(l.start)) / float64(time.Millisecond),
		Kind:          kind,
		Data:          data,
	}
	line, err := json.Marshal(ev)
	if err == nil {
		if _, err = l.w.Write(line); err == nil {
			err = l.w.WriteByte('\n')
		}
	}
	if err != nil && l.err == nil {
		l.err = err
	}
	return err
}

// Close flushes buffered lines; when the log owns a file it is closed even
// if the flush fails. The first error wins, counting the first Emit error.
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.w.Flush()
	if l.err != nil {
		err = l.err
	}
	if l.closer != nil {
		if cerr := l.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
