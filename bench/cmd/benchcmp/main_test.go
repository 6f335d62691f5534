package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fedprophet/bench/internal/stat"
)

func writeJSON(t *testing.T, dir, name string, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// One row per (workload, metric), with the verdict the rule gives, and a
// non-zero exit when anything regressed.
func TestBenchcmpRowsAndExit(t *testing.T) {
	dir := t.TempDir()
	spec := writeJSON(t, dir, "BENCHMARK.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
		{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
	}})
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	times := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	parent := stat.Sets{Seconds: 10, Seeds: seeds, Workloads: map[string]map[string][]float64{
		"serve.push": {"throughput_per_s": base, "latency_p50_ms": base},
		"train.e2e":  {"throughput_per_s": base, "latency_p50_ms": base},
	}}
	change := stat.Sets{Seconds: 10, Seeds: seeds, Workloads: map[string]map[string][]float64{
		"serve.push": {"throughput_per_s": times(1.2), "latency_p50_ms": times(0.8)},
		"train.e2e":  {"throughput_per_s": base, "latency_p50_ms": times(1.3)},
	}}
	a, b := writeJSON(t, dir, "a.json", parent), writeJSON(t, dir, "b.json", change)

	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-spec", spec, a, b}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d with a regressed row, want 1\n%s%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 1+4 {
		t.Fatalf("%d lines, want a header and four rows:\n%s", len(lines), stdout.String())
	}
	for i, want := range []string{"improved", "improved", "unchanged", "regressed"} {
		if !strings.HasSuffix(lines[1+i], want) {
			t.Errorf("row %d: %q, want verdict %s", i, lines[1+i], want)
		}
	}

	stdout.Reset()
	if code := realMain([]string{"-spec", spec, a, a}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d comparing a set with itself, want 0", code)
	}
	change.Seeds = seeds[:9]
	c := writeJSON(t, dir, "c.json", change)
	if code := realMain([]string{"-spec", spec, a, c}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d for sets on different seeds, want 2", code)
	}
}
