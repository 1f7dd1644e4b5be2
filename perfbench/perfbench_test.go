package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"qdc/internal/exp"
)

// binDir holds the perfbench and qdcbench binaries TestMain builds.
var binDir string

// TestMain runs the tests from the repository root — the directory the
// benchmark runs from — with both binaries built from this checkout.
func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "perfbench-test-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		binDir = dir
		for _, build := range [][]string{
			{"build", "-o", filepath.Join(dir, "perfbench"), "."},
			{"build", "-o", filepath.Join(dir, "qdcbench"), "qdc/cmd/qdcbench"},
		} {
			if out, err := exec.Command("go", build...).CombinedOutput(); err != nil {
				fmt.Fprintf(os.Stderr, "go %v: %v\n%s", build, err, out)
				return 1
			}
		}
		if err := os.Chdir(".."); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return m.Run()
	}())
}

func testBench(t *testing.T, name string) *bench {
	t.Helper()
	b, err := newBench(name, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b.bin = filepath.Join(binDir, "qdcbench")
	return b
}

// TestPinnedMatrixIsDefaultWithoutParallel pins sweep-default.json to the
// registry's default matrix minus the parallel backend.
func TestPinnedMatrixIsDefaultWithoutParallel(t *testing.T) {
	want, ok := exp.LookupMatrix("default")
	if !ok {
		t.Fatal("no default matrix in the registry")
	}
	var backends []string
	for _, b := range want.Backends {
		if b != exp.BackendParallel {
			backends = append(backends, b)
		}
	}
	want.Backends = backends
	got, err := exp.LoadMatrix(pinnedMatrix)
	if err != nil {
		t.Fatal(err)
	}
	got.Name = want.Name
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned matrix %+v\nwant %+v", got, want)
	}
	if n := len(got.Expand()); n != 53 {
		t.Fatalf("pinned matrix expands to %d scenarios, want 53", n)
	}
}

// TestPinnedMatrixMatchesBaseline runs sweep-default at base seed 1 and
// compares it with the tracked baseline: the 53 scenarios must equal their
// rows, and the 44 parallel rows must be the only ones missing.
func TestPinnedMatrixMatchesBaseline(t *testing.T) {
	b := testBench(t, sweepDefault)
	if err := b.expand(1); err != nil {
		t.Fatal(err)
	}
	col := &exp.Collect{}
	if err := b.execute(&bytes.Buffer{}, col); err != nil {
		t.Fatal(err)
	}
	base, err := exp.ReadRecords("BENCH_default.json")
	if err != nil {
		t.Fatal(err)
	}
	d := exp.Compare(base, col.Records)
	if !d.CleanExceptRemoved() || len(d.Improvements) > 0 || len(d.Added) > 0 {
		t.Fatalf("sweep-default differs from BENCH_default.json: %+v", d)
	}
	if len(d.Removed) != 44 {
		t.Fatalf("%d baseline rows missing, want the 44 parallel rows: %v", len(d.Removed), d.Removed)
	}
	for _, name := range d.Removed {
		if !strings.Contains(name, "/"+exp.BackendParallel+"/") {
			t.Errorf("non-parallel baseline row %s missing", name)
		}
	}
}

// TestDriftGuard pins the traced composition to exp.RunScenario: for every
// scenario of every workload, Stats and OK must be equal, or the benchmark
// would be timing a different program than the harness runs.
func TestDriftGuard(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range workloadNames {
		b := testBench(t, name)
		if err := b.expand(1); err != nil {
			t.Fatal(err)
		}
		for _, s := range b.scenarios {
			if seen[s.Name] {
				continue
			}
			seen[s.Name] = true
			got := runScenario(s, b.stepWorkers, &tracer{})
			want := exp.RunScenario(s)
			if got.rec.Stats != want.Stats || got.rec.OK != want.OK {
				t.Errorf("%s: composed Stats %+v OK %v, exp.RunScenario Stats %+v OK %v (%s)",
					s.Name, got.rec.Stats, got.rec.OK, want.Stats, want.OK, want.Error)
			}
		}
	}
	if len(seen) != 55 {
		t.Fatalf("checked %d distinct scenarios, want 53 sweep + 2 flood", len(seen))
	}
}

// TestMismatchesCountAsFailures corrupts each workload kind's oracle and
// checks that a pass reports the disagreement: a flood distance, and a
// snapshot byte for the in-process and the fanout sweep (every scenario of
// a differing snapshot counts).
func TestMismatchesCountAsFailures(t *testing.T) {
	for _, name := range []string{floodGrid, sweepDefault} {
		b := testBench(t, name)
		if err := b.prepare(1); err != nil {
			t.Fatal(err)
		}
		passes := map[string]func() passResult{name: func() passResult { return b.pass(false) }}
		if !b.flood() {
			if err := b.prepareFanout(); err != nil {
				t.Fatal(err)
			}
			passes[name+" fanout"] = b.fanoutPass
		}
		for kind, pass := range passes {
			if p := pass(); p.failed != 0 {
				t.Fatalf("%s: clean pass failed %d of %d", kind, p.failed, p.attempted)
			}
		}
		want := len(b.scenarios)
		if b.flood() {
			b.ref[0].dist = append([]int(nil), b.ref[0].dist...)
			b.ref[0].dist[len(b.ref[0].dist)-1]++
		} else {
			b.refSnapshot = bytes.Replace(b.refSnapshot, []byte(`"ok": true`), []byte(`"ok": false`), 1)
		}
		for kind, pass := range passes {
			if p := pass(); p.failed != want {
				t.Errorf("%s: pass against a corrupted oracle failed %d, want %d", kind, p.failed, want)
			}
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestEveryMetricEmitted runs every workload through the built binary for
// one pass, untraced and traced, and checks that the output is correct and
// names exactly the metrics of BENCHMARK.json with their units, after a
// host line.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(listed, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", listed, workloadNames)
	}
	for _, name := range workloadNames {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			out, err := exec.Command(filepath.Join(binDir, "perfbench"), "--workload", name,
				"--seed", "3", "--seconds", "1", "--trace", fmt.Sprint(trace)).Output()
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			var lines []string
			for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
				lines = append(lines, sc.Text())
			}
			if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], `{"host":`) {
				t.Fatalf("%s trace=%d: no host line before the result:\n%s", name, trace, out)
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			var got []string
			for m := range res.Metrics {
				got = append(got, m)
			}
			sort.Strings(got)
			var names []string
			for _, m := range want {
				names = append(names, m.Name)
				if res.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("%s trace=%d: %s has unit %q, want %q", name, trace, m.Name, res.Metrics[m.Name].Unit, m.Unit)
				}
			}
			sort.Strings(names)
			if !reflect.DeepEqual(got, names) {
				t.Errorf("%s trace=%d: metrics %v\nwant %v", name, trace, got, names)
			}
		}
	}
}
