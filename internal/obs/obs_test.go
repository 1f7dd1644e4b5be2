package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, -5} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Count != 7 {
		t.Errorf("count = %d, want 7", snap.Count)
	}
	if snap.Sum != 1010 {
		t.Errorf("sum = %d, want 1010", snap.Sum)
	}
	if snap.Min != 0 || snap.Max != 1000 {
		t.Errorf("min/max = %d/%d, want 0/1000", snap.Min, snap.Max)
	}
	// 0 and the clamped -5 → [0,0]; 1 → [1,1]; 2,3 → [2,3]; 4 → [4,7];
	// 1000 → [512,1023].
	want := []Bucket{
		{Lo: 0, Hi: 0, Count: 2},
		{Lo: 1, Hi: 1, Count: 1},
		{Lo: 2, Hi: 3, Count: 2},
		{Lo: 4, Hi: 7, Count: 1},
		{Lo: 512, Hi: 1023, Count: 1},
	}
	if !reflect.DeepEqual(snap.Buckets, want) {
		t.Errorf("buckets = %+v, want %+v", snap.Buckets, want)
	}
}

// TestHistogramOrderIndependent pins the determinism contract: equal
// observation multisets yield equal snapshots whatever the order or the
// concurrency of the Observe calls.
func TestHistogramOrderIndependent(t *testing.T) {
	values := make([]int64, 500)
	rng := rand.New(rand.NewSource(3))
	for i := range values {
		values[i] = rng.Int63n(1 << 20)
	}
	var seq Histogram
	for _, v := range values {
		seq.Observe(v)
	}

	var conc Histogram
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(values); i += 4 {
				conc.Observe(values[i])
			}
		}(w)
	}
	wg.Wait()

	if got, want := conc.Snapshot(), seq.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("concurrent snapshot diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestHistogramZeroValueSnapshot(t *testing.T) {
	var h Histogram
	snap := h.Snapshot()
	if snap.Count != 0 || snap.Sum != 0 || snap.Min != 0 || snap.Max != 0 || snap.Buckets != nil {
		t.Errorf("zero-value snapshot not empty: %+v", snap)
	}
}

func TestRegistrySnapshotAndReplace(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	c.Add(3)
	reg.PublishCounter("msgs", &c)
	reg.Publish("label", func() any { return "sweep" })
	snap := reg.Snapshot()
	if snap["msgs"] != int64(3) || snap["label"] != "sweep" {
		t.Errorf("snapshot = %v", snap)
	}
	reg.Publish("label", func() any { return "replaced" })
	if got := reg.Snapshot()["label"]; got != "replaced" {
		t.Errorf("replaced provider not used, got %v", got)
	}
}

func TestEventLogFormat(t *testing.T) {
	var buf bytes.Buffer
	log := NewEventLog(&buf)
	base := time.Unix(100, 0)
	log.start = base
	tick := 0
	log.now = func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * 250 * time.Millisecond)
	}
	if err := log.Emit("sweep_start", map[string]any{"matrix": "quick"}); err != nil {
		t.Fatal(err)
	}
	if err := log.Emit("sweep_done", nil); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	var first Event
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Seq != 1 || first.Kind != "sweep_start" {
		t.Errorf("first event = %+v", first)
	}
	if first.ElapsedMillis <= 0 {
		t.Errorf("elapsed_ms = %v, want > 0", first.ElapsedMillis)
	}
	var second Event
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second.Seq != 2 || second.Data != nil {
		t.Errorf("second event = %+v", second)
	}
}

// TestEventLogKeepsFirstEmitError: an Emit that fails still reports its
// error, later good events are written, and Close returns the first Emit
// error, so callers emitting from many goroutines need no bookkeeping of
// their own. A nil log is disabled.
func TestEventLogKeepsFirstEmitError(t *testing.T) {
	var buf bytes.Buffer
	log := NewEventLog(&buf)
	first := log.Emit("bad", map[string]any{"x": math.Inf(1)})
	if first == nil {
		t.Fatal("an unencodable event must fail")
	}
	if err := log.Emit("good", nil); err != nil {
		t.Fatal(err)
	}
	if err := log.Emit("worse", map[string]any{"c": make(chan int)}); err == nil {
		t.Fatal("an unencodable event must fail")
	}
	if err := log.Close(); err == nil || err.Error() != first.Error() {
		t.Errorf("Close = %v, want the first Emit error %v", err, first)
	}
	if !strings.Contains(buf.String(), `"event":"good"`) || strings.Count(buf.String(), "\n") != 1 {
		t.Errorf("log holds %q, want exactly the good event", buf.String())
	}

	var off *EventLog
	if err := off.Emit("ignored", nil); err != nil {
		t.Errorf("nil log Emit = %v", err)
	}
	if err := off.Close(); err != nil {
		t.Errorf("nil log Close = %v", err)
	}
}
