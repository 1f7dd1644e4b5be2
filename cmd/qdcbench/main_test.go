package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// pairSpec expands to two scenarios, subsetSpec to one of them; both share
// base_seed so the overlapping scenario reproduces identically.
const pairSpec = `{
  "topologies": [{"family": "path", "size": 5}, {"family": "cycle", "size": 4}],
  "bandwidths": [32],
  "backends": ["local"],
  "algorithms": ["verify"],
  "base_seed": 1
}`

const subsetSpec = `{
  "topologies": [{"family": "path", "size": 5}],
  "bandwidths": [32],
  "backends": ["local"],
  "algorithms": ["verify"],
  "base_seed": 1
}`

// TestShardMergeMatchesUnsharded drives the acceptance flow through the
// CLI entry point: sharded runs of examples/matrix.json, merged, must be
// byte-identical to the unsharded -json snapshot.
func TestShardMergeMatchesUnsharded(t *testing.T) {
	spec := "../../examples/matrix.json"
	dir := t.TempDir()
	unsharded := filepath.Join(dir, "unsharded.json")
	s1 := filepath.Join(dir, "s1.jsonl")
	s2 := filepath.Join(dir, "s2.jsonl")
	merged := filepath.Join(dir, "merged.json")

	var out bytes.Buffer
	for _, args := range [][]string{
		{"-matrix", spec, "-json", unsharded},
		{"-matrix", spec, "-shard", "1/2", "-jsonl", s1},
		{"-matrix", spec, "-shard", "2/2", "-jsonl", s2},
		{"merge", "-matrix", spec, "-json", merged, s1, s2},
	} {
		if err := run(args, &out); err != nil {
			t.Fatalf("qdcbench %v: %v", args, err)
		}
	}
	want, err := os.ReadFile(unsharded)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("merged shard snapshot is not byte-identical to the unsharded run")
	}
}

func TestMergeRejectsDuplicateAndIncompleteShards(t *testing.T) {
	spec := "../../examples/matrix.json"
	dir := t.TempDir()
	s1 := filepath.Join(dir, "s1.jsonl")
	var out bytes.Buffer
	if err := run([]string{"-matrix", spec, "-shard", "1/2", "-jsonl", s1}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"merge", s1, s1}, &out); err == nil {
		t.Error("merging the same shard twice must fail")
	}
	// One shard of two cannot cover the matrix.
	if err := run([]string{"merge", "-matrix", spec, s1}, &out); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Errorf("incomplete merge against the matrix must fail, got %v", err)
	}
}

// TestMergeCatchesSeedMismatch pins the merge guard against shards run
// with an inconsistent -seed: the name set matches the matrix, but the
// embedded scenarios differ, so the completeness check must refuse unless
// merge is told the same seed.
func TestMergeCatchesSeedMismatch(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "subset.json", subsetSpec)
	s1 := filepath.Join(dir, "s1.jsonl")
	var out bytes.Buffer
	if err := run([]string{"-matrix", spec, "-seed", "42", "-shard", "1/1", "-jsonl", s1}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"merge", "-matrix", spec, s1}, &out); err == nil ||
		!strings.Contains(err.Error(), "different spec") {
		t.Errorf("a seed-mismatched shard must fail the merge check, got %v", err)
	}
	if err := run([]string{"merge", "-matrix", spec, "-seed", "42", "-json", filepath.Join(dir, "m.json"), s1}, &out); err != nil {
		t.Errorf("merge with the matching -seed must pass: %v", err)
	}
}

// TestBaselineCatchesRemovedScenario pins the CLI half of the removal fix:
// a run whose matrix lost a scenario fails against the old baseline, and
// -allow-removed is the explicit escape hatch.
func TestBaselineCatchesRemovedScenario(t *testing.T) {
	dir := t.TempDir()
	pair := writeFile(t, dir, "pair.json", pairSpec)
	subset := writeFile(t, dir, "subset.json", subsetSpec)
	baseline := filepath.Join(dir, "base.json")

	var out bytes.Buffer
	if err := run([]string{"-matrix", pair, "-json", baseline}, &out); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-matrix", subset, "-baseline", baseline}, &out)
	if err == nil || !strings.Contains(err.Error(), "removed") {
		t.Fatalf("a vanished scenario must fail the baseline gate, got %v", err)
	}
	out.Reset()
	if err := run([]string{"-matrix", subset, "-baseline", baseline, "-allow-removed"}, &out); err != nil {
		t.Fatalf("-allow-removed must accept a removal-only diff: %v", err)
	}
	if !strings.Contains(out.String(), "REMOVED") {
		t.Error("accepted removals must still be reported")
	}
	// An unchanged matrix stays clean against its own snapshot.
	if err := run([]string{"-matrix", pair, "-baseline", baseline}, &out); err != nil {
		t.Errorf("identical rerun failed the baseline gate: %v", err)
	}
}

// TestWideFanOutWithEmptyShards pins the fixed-width fan-out contract: a
// shard count larger than the expansion yields empty-but-valid output
// files, and merging every shard still reproduces the unsharded snapshot.
func TestWideFanOutWithEmptyShards(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "subset.json", subsetSpec) // expands to 1 scenario
	unsharded := filepath.Join(dir, "unsharded.json")
	var out bytes.Buffer
	if err := run([]string{"-matrix", spec, "-json", unsharded}, &out); err != nil {
		t.Fatal(err)
	}
	shards := make([]string, 3)
	for i := range shards {
		shards[i] = filepath.Join(dir, fmt.Sprintf("s%d.jsonl", i+1))
		args := []string{"-matrix", spec, "-shard", fmt.Sprintf("%d/3", i+1), "-jsonl", shards[i]}
		if err := run(args, &out); err != nil {
			t.Fatalf("empty shard must not fail: qdcbench %v: %v", args, err)
		}
		if _, err := os.Stat(shards[i]); err != nil {
			t.Fatalf("shard %d wrote no output file: %v", i+1, err)
		}
	}
	merged := filepath.Join(dir, "merged.json")
	if err := run(append([]string{"merge", "-matrix", spec, "-json", merged}, shards...), &out); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(unsharded)
	got, _ := os.ReadFile(merged)
	if !bytes.Equal(got, want) {
		t.Error("merge over empty shards lost byte-identity with the unsharded run")
	}
}

func TestShardRejectsBaseline(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-matrix", "quick", "-shard", "1/2", "-baseline", "whatever.json"}, &out)
	if err == nil || !strings.Contains(err.Error(), "merge") {
		t.Errorf("sharded runs must refuse -baseline, got %v", err)
	}
}

func TestTrendCLI(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "pair.json", pairSpec)
	subset := writeFile(t, dir, "subset.json", subsetSpec)
	var out bytes.Buffer
	if err := run([]string{"-matrix", spec, "-json", filepath.Join(dir, "BENCH_001.json")}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-matrix", subset, "-json", filepath.Join(dir, "BENCH_002.json")}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"trend", "-dir", dir}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "trend over 2 snapshots") {
		t.Errorf("missing header: %s", text)
	}
	if !strings.Contains(text, "path5/verify/local/B32") {
		t.Errorf("missing scenario row: %s", text)
	}
	if !strings.Contains(text, "VANISHED") || !strings.Contains(text, "cycle4/verify/local/B32") {
		t.Errorf("the dropped scenario must be flagged as vanished: %s", text)
	}
}

// TestFlagModesRejectStrayArguments: a positional word after the flags is
// an error naming it, in every flag mode, rather than silently ignored.
func TestFlagModesRejectStrayArguments(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-list", "roundbench"}, `"roundbench"`},
		{[]string{"-matrix", "quick", "-json", filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}, "b.json"},
		{[]string{"roundbench"}, `"roundbench"`},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("qdcbench %v: error %v, want one naming %s", tc.args, err, tc.want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "a.json")); err == nil {
		t.Error("a refused matrix run wrote its -json snapshot")
	}
}

func TestUnknownMatrixError(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-matrix", "no-such"}, &out); err == nil {
		t.Error("an unknown matrix name must fail")
	}
}
