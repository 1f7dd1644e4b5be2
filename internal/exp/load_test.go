package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// validMatrixJSON is a minimal well-formed spec the error cases perturb.
const validMatrixJSON = `{
  "name": "filetest",
  "topologies": [{"family": "path", "size": 9}],
  "bandwidths": [32],
  "backends": ["local"],
  "algorithms": ["verify"],
  "base_seed": 3
}`

func writeSpec(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadMatrix(t *testing.T) {
	m, err := LoadMatrix(writeSpec(t, "m.json", validMatrixJSON))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "filetest" || m.BaseSeed != 3 {
		t.Errorf("loaded %+v", m)
	}
	scenarios := m.Expand()
	if len(scenarios) != 1 || scenarios[0].Name != "path9/verify/local/B32" {
		t.Errorf("expansion: %+v", scenarios)
	}
	// The derived seed must match an identical compiled-in matrix: a file
	// spec is a definition, not a different sweep.
	if want := DeriveSeed(3, "path9/verify/local/B32"); scenarios[0].Seed != want {
		t.Errorf("seed %d, want %d", scenarios[0].Seed, want)
	}
}

func TestLoadMatrixNameDefaultsToFileBase(t *testing.T) {
	spec := strings.Replace(validMatrixJSON, `"name": "filetest",`, "", 1)
	m, err := LoadMatrix(writeSpec(t, "nightly-sweep.json", spec))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "nightly-sweep" {
		t.Errorf("name %q, want the file base name", m.Name)
	}
}

func TestLoadMatrixErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(string) string
		wantErr string
	}{
		{"unknown field", func(s string) string {
			return strings.Replace(s, `"base_seed"`, `"base_sed"`, 1)
		}, "base_sed"},
		{"unknown family", func(s string) string {
			return strings.Replace(s, `"path"`, `"moebius"`, 1)
		}, "unknown topology family"},
		{"unknown backend", func(s string) string {
			return strings.Replace(s, `"local"`, `"telepathy"`, 1)
		}, "unknown backend"},
		{"unknown algorithm", func(s string) string {
			return strings.Replace(s, `"verify"`, `"sorting"`, 1)
		}, "unknown algorithm"},
		{"empty topologies", func(s string) string {
			return strings.Replace(s, `[{"family": "path", "size": 9}]`, `[]`, 1)
		}, "no topologies"},
		{"empty bandwidths", func(s string) string {
			return strings.Replace(s, `[32]`, `[]`, 1)
		}, "no bandwidths"},
		{"empty backends", func(s string) string {
			return strings.Replace(s, `["local"]`, `[]`, 1)
		}, "no backends"},
		{"empty algorithms", func(s string) string {
			return strings.Replace(s, `["verify"]`, `[]`, 1)
		}, "no algorithms"},
		{"undersized topology", func(s string) string {
			return strings.Replace(s, `"size": 9`, `"size": 1`, 1)
		}, "size >= 2"},
		// A size the family cannot realise fails at load, not in every
		// scenario's build.
		{"two-node cycle", func(s string) string {
			return strings.Replace(s, `{"family": "path", "size": 9}`, `{"family": "cycle", "size": 2}`, 1)
		}, "cycle needs size >= 3, got 2"},
		{"one-vertex grid", func(s string) string {
			return strings.Replace(s, `{"family": "path", "size": 9}`, `{"family": "grid", "size": 3}`, 1)
		}, "grid needs size >= 4, got 3"},
		// A path this long has no rounded length 2^k+1 in an int;
		// lbnetwork.New refuses it too.
		{"endless lbnet path", func(s string) string {
			return strings.Replace(s, `{"family": "path", "size": 9}`, `{"family": "lbnet", "size": 2, "param": 5e18}`, 1)
		}, "lbnet needs a path length of at most 1073741824, got 5e+18"},
		// Topologies the simulator's int32 tables cannot index are refused
		// before anything asks for their memory (over 100 GB for the grid).
		{"grid above 2^31 vertices", func(s string) string {
			return strings.Replace(s, `{"family": "path", "size": 9}`, `{"family": "grid", "size": 5000000000}`, 1)
		}, "grid of size 5000000000 has 4999904100 vertices, more than 2147483647"},
		{"complete graph above 2^30 edges", func(s string) string {
			return strings.Replace(s, `{"family": "path", "size": 9}`, `{"family": "complete", "size": 100000}`, 1)
		}, "complete of size 100000 has 4999950000 edges, more than 1073741823"},
		// An lbnet's endpoint cliques grow as (Γ+K)²: 1,114,131 vertices
		// but 4,296,933,407 edges.
		{"lbnet above 2^30 edges", func(s string) string {
			return strings.Replace(s, `{"family": "path", "size": 9}`, `{"family": "lbnet", "size": 65536}`, 1)
		}, "lbnet of size 65536 has 4296933407 edges, more than 1073741823"},
		// Γ·L would wrap an int here; Γ alone is refused first.
		{"lbnet above 2^31 paths", func(s string) string {
			return strings.Replace(s, `{"family": "path", "size": 9}`, `{"family": "lbnet", "size": 4611686018427387904, "param": 1073741824}`, 1)
		}, "lbnet of size 4611686018427387904 has more than 2147483647 vertices"},
		{"non-positive bandwidth", func(s string) string {
			return strings.Replace(s, `[32]`, `[0]`, 1)
		}, "not positive"},
		{"duplicate backend", func(s string) string {
			return strings.Replace(s, `["local"]`, `["local", "local"]`, 1)
		}, "duplicate backend"},
		{"empty expansion", func(s string) string {
			// Simulation needs lbnet, so a path-only matrix with only the
			// simulation backend has zero runnable cells.
			return strings.Replace(s, `["local"]`, `["simulation"]`, 1)
		}, "zero scenarios"},
		{"not JSON", func(string) string { return "topologies: [path]\n" }, "invalid character"},
		{"trailing data", func(s string) string { return s + "\n{}" }, "trailing data"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := LoadMatrix(writeSpec(t, "m.json", c.mutate(validMatrixJSON)))
			if err == nil {
				t.Fatal("LoadMatrix accepted a bad spec")
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}

	if _, err := LoadMatrix(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("LoadMatrix accepted a missing file")
	}
}

// wideMatrix is a valid matrix of the paths on 2..topologies+1 nodes and
// the bandwidths 1..bandwidths under the given backends and algorithms.
func wideMatrix(topologies, bandwidths int, backends, algorithms []string) Matrix {
	m := Matrix{Name: "wide", Backends: backends, Algorithms: algorithms, BaseSeed: 1}
	for i := range topologies {
		m.Topologies = append(m.Topologies, TopologySpec{Family: FamilyPath, Size: i + 2})
	}
	for b := range bandwidths {
		m.Bandwidths = append(m.Bandwidths, b+1)
	}
	return m
}

// overCapMatrix is a valid spec of 66,560 cells, over MaxMatrixCells.
func overCapMatrix() Matrix {
	return wideMatrix(64, 52, sortedKeys(knownBackends), sortedKeys(knownAlgorithms))
}

// TestLoadMatrixRefusesTooManyCells: a spec whose axes multiply past
// MaxMatrixCells is refused before anything expands it, whatever else is
// wrong with it, and a spec at the cap loads.
func TestLoadMatrixRefusesTooManyCells(t *testing.T) {
	over := overCapMatrix()
	data, err := json.Marshal(over)
	if err != nil {
		t.Fatal(err)
	}
	// Four axes of 2^16 values each, whose product wraps an int to zero.
	repeat := func(v string) string { return "[" + strings.Repeat(v+",", 1<<16-1) + v + "]" }
	wrapping := fmt.Sprintf(`{"topologies": %s, "bandwidths": %s, "backends": %s, "algorithms": %s}`,
		repeat("{}"), repeat("0"), repeat(`""`), repeat(`""`))
	for name, spec := range map[string]string{"wide": string(data), "wrapping": wrapping} {
		_, err := LoadMatrix(writeSpec(t, "m.json", spec))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("more than %d cells", MaxMatrixCells)) {
			t.Errorf("%s: LoadMatrix of a %d-byte spec over the cap returned %v", name, len(spec), err)
		}
	}

	at := wideMatrix(64, 64, sortedKeys(knownBackends), []string{AlgVerify, AlgFlood, AlgMST, AlgMSTApprox})
	path := filepath.Join(t.TempDir(), "at.json")
	if err := SaveMatrix(path, at); err != nil {
		t.Fatalf("a matrix of exactly %d cells: %v", MaxMatrixCells, err)
	}
	if _, err := LoadMatrix(path); err != nil {
		t.Fatalf("a matrix of exactly %d cells: %v", MaxMatrixCells, err)
	}
}

// TestRegisteredMatricesValidate holds the compiled-in registry to the same
// rules as file specs, so the vocabularies cannot drift apart.
func TestRegisteredMatricesValidate(t *testing.T) {
	for _, name := range MatrixNames() {
		m, _ := LookupMatrix(name)
		if err := m.Validate(); err != nil {
			t.Errorf("registered matrix %q fails validation: %v", name, err)
		}
	}
}

func TestResolveMatrix(t *testing.T) {
	if m, err := ResolveMatrix("quick"); err != nil || m.Name != "quick" {
		t.Errorf("registry name: %v, %v", m.Name, err)
	}
	path := writeSpec(t, "sweep.json", validMatrixJSON)
	if m, err := ResolveMatrix(path); err != nil || m.Name != "filetest" {
		t.Errorf("file path: %v, %v", m.Name, err)
	}
	_, err := ResolveMatrix("no-such-matrix")
	if err == nil || !strings.Contains(err.Error(), "quick") {
		t.Errorf("unknown name must list the registry, got %v", err)
	}
	if _, err := ResolveMatrix("no-such-file.json"); err == nil {
		t.Error("a .json argument must resolve as a file, and a missing file must error")
	}
}

// TestSaveMatrixRoundTrip: the frozen-spec file written at fan-out (or job
// submission) must load back as the very matrix that was expanded, seed
// override and all — the property that makes the frozen path a faithful
// stand-in for the original -matrix argument.
func TestSaveMatrixRoundTrip(t *testing.T) {
	m, ok := LookupMatrix("quick")
	if !ok {
		t.Fatal("quick matrix not registered")
	}
	m.BaseSeed = 12345 // a submit-time -seed override travels in the frozen file

	path := filepath.Join(t.TempDir(), "matrix.json")
	if err := SaveMatrix(path, m); err != nil {
		t.Fatalf("SaveMatrix: %v", err)
	}
	got, err := LoadMatrix(path)
	if err != nil {
		t.Fatalf("LoadMatrix: %v", err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round-tripped matrix differs:\n got %+v\nwant %+v", got, m)
	}
	want, gotExp := m.Expand(), got.Expand()
	if !reflect.DeepEqual(gotExp, want) {
		t.Errorf("round-tripped expansion differs: %d vs %d scenarios", len(gotExp), len(want))
	}

	if err := SaveMatrix(filepath.Join(t.TempDir(), "bad.json"), Matrix{Name: "empty"}); err == nil {
		t.Error("SaveMatrix must refuse an invalid matrix")
	}
}

// FuzzLoadMatrix feeds arbitrary bytes to LoadMatrix. It must never panic,
// and a spec it accepts must round-trip through SaveMatrix and LoadMatrix
// to an identical Matrix with an identical expansion. The seed corpus under
// testdata/fuzz holds examples/matrix.json, every registered matrix as
// SaveMatrix writes it, a spec over MaxMatrixCells and an lbnet path too
// long to round.
func FuzzLoadMatrix(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec []byte) {
		dir := t.TempDir()
		first := filepath.Join(dir, "spec.json")
		if err := os.WriteFile(first, spec, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadMatrix(first)
		if err != nil {
			return
		}
		saved := filepath.Join(dir, "saved.json")
		if err := SaveMatrix(saved, m); err != nil {
			t.Fatalf("SaveMatrix refused a loaded matrix: %v", err)
		}
		again, err := LoadMatrix(saved)
		if err != nil {
			t.Fatalf("LoadMatrix refused what SaveMatrix wrote: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip changed the matrix:\n got %+v\nwant %+v", again, m)
		}
		if !reflect.DeepEqual(again.Expand(), m.Expand()) {
			t.Fatal("round trip changed the expansion")
		}
	})
}
