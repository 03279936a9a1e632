package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFileSourcesAndMarkdown(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	os.WriteFile(a, []byte(`{"benchmarks":{"BenchmarkChitChat":{"iterations":2,"ns_per_op":1.94e8,"sec_per_op":0.194}}}`), 0o644)
	os.WriteFile(b, []byte(`{"benchmarks":{"BenchmarkNosyWorkers1":{"iterations":2,"ns_per_op":4.1e8,"sec_per_op":0.41}}}`), 0o644)

	srcs, err := fileSources([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) != 2 {
		t.Fatalf("got %d sources", len(srcs))
	}
	md := renderMarkdown(srcs)
	for _, want := range []string{"ChitChat", "NosyWorkers1", "0.194", "0.41"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	// Two columns + source column on every data row.
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(line, "| ") && strings.Count(line, "|") != 4 {
			t.Fatalf("ragged table row: %q", line)
		}
	}
}

func TestGate(t *testing.T) {
	baseline := map[string]entry{
		"BenchmarkChitChat":     {SecPerOp: 0.20},
		"BenchmarkNosyWorkers1": {SecPerOp: 0.40},
		"BenchmarkShardSolve1M": {SecPerOp: 5.0},
		"BenchmarkUnpinned":     {SecPerOp: 1.0},
	}

	// Within threshold (and faster) passes; unpinned regressions are
	// ignored.
	current := map[string]entry{
		"BenchmarkChitChat":     {SecPerOp: 0.22}, // +10%
		"BenchmarkNosyWorkers1": {SecPerOp: 0.30}, // faster
		"BenchmarkShardSolve1M": {SecPerOp: 5.0},  // unchanged
		"BenchmarkUnpinned":     {SecPerOp: 9.0},  // 9x, but not pinned
	}
	if v := gate(baseline, current, gatedBenchmarks, 15); len(v) != 0 {
		t.Fatalf("clean run flagged: %+v", v)
	}

	// One pinned benchmark over threshold is reported with its slowdown.
	current["BenchmarkShardSolve1M"] = entry{SecPerOp: 6.0} // +20%
	v := gate(baseline, current, gatedBenchmarks, 15)
	if len(v) != 1 || v[0].Name != "BenchmarkShardSolve1M" {
		t.Fatalf("violations = %+v, want the shard bench alone", v)
	}
	if v[0].Pct < 19.9 || v[0].Pct > 20.1 {
		t.Fatalf("reported slowdown %v%%, want ~20%%", v[0].Pct)
	}

	// A tighter threshold catches the +10% too, ordered as pinned.
	if v := gate(baseline, current, gatedBenchmarks, 5); len(v) != 2 ||
		v[0].Name != "BenchmarkChitChat" || v[1].Name != "BenchmarkShardSolve1M" {
		t.Fatalf("violations at 5%% = %+v", v)
	}

	// Benchmarks missing from either side or with zero baselines are
	// skipped, never flagged.
	if v := gate(map[string]entry{"BenchmarkNosyWorkers1": {}}, current, gatedBenchmarks, 15); len(v) != 0 {
		t.Fatalf("degenerate baseline flagged: %+v", v)
	}
	if v := gate(baseline, map[string]entry{}, gatedBenchmarks, 15); len(v) != 0 {
		t.Fatalf("absent current numbers flagged: %+v", v)
	}
}

func TestFileSourcesBadJSON(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("not json"), 0o644)
	if _, err := fileSources([]string{bad}); err == nil {
		t.Fatal("expected error for malformed input")
	}
}
