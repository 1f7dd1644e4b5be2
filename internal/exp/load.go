package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The validation vocabularies of Matrix.Validate: every axis value of a
// file-defined matrix must name something the harness can actually build.
var (
	knownFamilies = map[string]bool{
		FamilyPath: true, FamilyCycle: true, FamilyStar: true,
		FamilyGrid: true, FamilyComplete: true, FamilyRandom: true,
		FamilyTree: true, FamilyLBNet: true,
	}
	knownBackends = map[string]bool{
		BackendLocal: true, BackendParallel: true,
		BackendSimulation: true, BackendQuantum: true,
	}
	knownAlgorithms = map[string]bool{
		AlgVerify: true, AlgMST: true, AlgMSTApprox: true,
		AlgDisjointness: true, AlgFlood: true,
	}
)

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MaxMatrixCells bounds a matrix's cells, the product of its four axis
// lengths: Validate refuses a larger matrix before anything expands it, so
// a spec of a few kilobytes cannot make a loader build millions of
// scenarios. The largest registered matrix, default, has 256 cells.
const MaxMatrixCells = 1 << 16

// Validate checks that every axis of the matrix is non-empty, that the
// matrix has at most MaxMatrixCells cells, that its axes name only
// topology families, algorithms and backends the harness knows, that every
// topology's family can realise its size (the check its build runs), that
// bandwidths are positive, and that no axis repeats a value (a repeated
// cell would expand into colliding scenario names, which Compare and merge
// both key on). It does not check cross-axis compatibility — Expand skips
// incompatible cells by design — but it does reject a matrix whose whole
// expansion is empty, since running it could only ever produce an empty
// snapshot.
func (m Matrix) Validate() error {
	if len(m.Topologies) == 0 {
		return fmt.Errorf("matrix %q has no topologies", m.Name)
	}
	if len(m.Bandwidths) == 0 {
		return fmt.Errorf("matrix %q has no bandwidths", m.Name)
	}
	if len(m.Backends) == 0 {
		return fmt.Errorf("matrix %q has no backends", m.Name)
	}
	if len(m.Algorithms) == 0 {
		return fmt.Errorf("matrix %q has no algorithms", m.Name)
	}
	cells := 1
	for _, axis := range []int{len(m.Topologies), len(m.Bandwidths), len(m.Backends), len(m.Algorithms)} {
		if cells > MaxMatrixCells/axis {
			return fmt.Errorf("matrix %q has %d topologies × %d bandwidths × %d backends × %d algorithms, more than %d cells",
				m.Name, len(m.Topologies), len(m.Bandwidths), len(m.Backends), len(m.Algorithms), MaxMatrixCells)
		}
		cells *= axis
	}
	seenTopo := make(map[string]bool)
	for _, t := range m.Topologies {
		if !knownFamilies[t.Family] {
			return fmt.Errorf("matrix %q: unknown topology family %q (known: %v)",
				m.Name, t.Family, sortedKeys(knownFamilies))
		}
		if err := t.checkSize(); err != nil {
			return fmt.Errorf("matrix %q: topology %s: %w", m.Name, t, err)
		}
		if t.Param < 0 || t.MaxWeight < 0 {
			return fmt.Errorf("matrix %q: topology %s has a negative knob", m.Name, t)
		}
		key := t.String()
		if seenTopo[key] {
			return fmt.Errorf("matrix %q: duplicate topology %s", m.Name, t)
		}
		seenTopo[key] = true
	}
	seenBW := make(map[int]bool)
	for _, b := range m.Bandwidths {
		if b < 1 {
			return fmt.Errorf("matrix %q: bandwidth %d is not positive", m.Name, b)
		}
		if seenBW[b] {
			return fmt.Errorf("matrix %q: duplicate bandwidth %d", m.Name, b)
		}
		seenBW[b] = true
	}
	seenBackend := make(map[string]bool)
	for _, b := range m.Backends {
		if !knownBackends[b] {
			return fmt.Errorf("matrix %q: unknown backend %q (known: %v)",
				m.Name, b, sortedKeys(knownBackends))
		}
		if seenBackend[b] {
			return fmt.Errorf("matrix %q: duplicate backend %q", m.Name, b)
		}
		seenBackend[b] = true
	}
	seenAlg := make(map[string]bool)
	for _, a := range m.Algorithms {
		if !knownAlgorithms[a] {
			return fmt.Errorf("matrix %q: unknown algorithm %q (known: %v)",
				m.Name, a, sortedKeys(knownAlgorithms))
		}
		if seenAlg[a] {
			return fmt.Errorf("matrix %q: duplicate algorithm %q", m.Name, a)
		}
		seenAlg[a] = true
	}
	if len(m.Expand()) == 0 {
		return fmt.Errorf("matrix %q expands to zero scenarios: every cell is incompatible", m.Name)
	}
	return nil
}

// LoadMatrix parses a JSON Matrix spec from path with strict validation:
// unknown fields, trailing data, empty axes and unknown family, algorithm
// or backend names are all errors, so a typo in a sweep file fails loudly
// instead of silently shrinking the sweep. An absent "name" defaults to the
// file's base name without extension.
func LoadMatrix(path string) (Matrix, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Matrix{}, fmt.Errorf("exp: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m Matrix
	if err := dec.Decode(&m); err != nil {
		return Matrix{}, fmt.Errorf("exp: %s: %w", path, err)
	}
	if dec.More() {
		return Matrix{}, fmt.Errorf("exp: %s: trailing data after the matrix object", path)
	}
	if m.Name == "" {
		base := filepath.Base(path)
		m.Name = strings.TrimSuffix(base, filepath.Ext(base))
	}
	if err := m.Validate(); err != nil {
		return Matrix{}, fmt.Errorf("exp: %s: %w", path, err)
	}
	return m, nil
}

// SaveMatrix writes m to path as a JSON spec that LoadMatrix round-trips
// into an identical Matrix — same name, axes and base seed, hence an
// identical expansion with identical derived scenario seeds. This is the
// frozen-spec rule of the fan-out paths: a supervisor (qdcbench fanout, the
// qdcd daemon) resolves a -matrix argument exactly once, snapshots the
// result next to the shard streams, and hands workers the frozen path — so
// a *.json spec edited mid-sweep can never make a worker (or a retry) run a
// silently different sweep than the one the parent expanded.
func SaveMatrix(path string, m Matrix) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("exp: %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	return nil
}

// ResolveMatrix turns a -matrix argument into a Matrix: a registered name
// resolves through the registry, anything that looks like a file path
// (a .json suffix or a path separator) loads from disk, and everything else
// is an explicit error naming both options.
func ResolveMatrix(nameOrPath string) (Matrix, error) {
	if m, ok := LookupMatrix(nameOrPath); ok {
		return m, nil
	}
	if strings.HasSuffix(nameOrPath, ".json") || strings.ContainsRune(nameOrPath, os.PathSeparator) {
		return LoadMatrix(nameOrPath)
	}
	return Matrix{}, fmt.Errorf("exp: unknown matrix %q (registered: %v; a *.json path defines one from a file)",
		nameOrPath, MatrixNames())
}
