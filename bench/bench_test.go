package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// results runs the benchmark in-process and returns the JSON line of every
// workload it ran.
func results(t *testing.T, args ...string) []result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain(args, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("bench %v: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
	}
	var out []result
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(line, "{") {
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			out = append(out, r)
		}
	}
	return out
}

// The smoke pass runs every workload at tiny sizes with every output check
// on; it asserts nothing about time.
func TestSmokeEveryWorkload(t *testing.T) {
	rs := results(t, "--smoke", "--seed", "3", "--outdir", t.TempDir())
	if len(rs) != len(workloads) {
		t.Fatalf("%d results for %d workloads", len(rs), len(workloads))
	}
	for i, r := range rs {
		name := workloads[i].name
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", name, r.Correct, r.Failed, r.Attempted)
		}
		if len(r.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want the %d end-to-end ones", name, len(r.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit || !(m.Value > 0) {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", name, d.Name, m, ok, d.Unit)
			}
		}
	}
}

// A traced run reports exactly the per-layer set and writes parent-linked
// spans: every child lies inside its parent, and the children of a round
// cover no more than the round.
func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"fed.wire", "serve.pull", "train.cascade"} {
		dir := t.TempDir()
		rs := results(t, "--smoke", "--trace", "1", "--workload", name, "--outdir", dir)
		if len(rs) != 1 || !rs[0].Correct {
			t.Fatalf("%s: results %+v", name, rs)
		}
		for _, d := range perLayer {
			if m, ok := rs[0].Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s missing or in %q", name, d.Name, m.Unit)
			}
		}
		if len(rs[0].Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want the %d per-layer ones", name, len(rs[0].Metrics), len(perLayer))
		}
		b, err := os.ReadFile(filepath.Join(dir, "trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(b, &tf); err != nil {
			t.Fatal(err)
		}
		if len(tf.Spans) == 0 || tf.Workload != name {
			t.Fatalf("%s: trace.json holds %d spans for %q", name, len(tf.Spans), tf.Workload)
		}
		linked := 0
		for i, s := range tf.Spans {
			if s.Parent == noSpan {
				continue
			}
			linked++
			p := tf.Spans[s.Parent]
			if int(s.Parent) >= i || s.Trace != p.Trace {
				t.Fatalf("%s: span %d (%s) names parent %d of trace %d", name, i, s.Name, s.Parent, p.Trace)
			}
			// A handler span is linked across the connection: the client's
			// clock brackets it, but only to scheduling accuracy.
			if s.Name != "fldist.Handler" && (s.Start < p.Start || s.End > p.End) {
				t.Errorf("%s: span %d (%s) [%d,%d] leaves its parent %s [%d,%d]", name, i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
		if linked == 0 {
			t.Errorf("%s: no span names a parent", name)
		}
		for i, self := range selfTimes(tf.Spans) {
			if self < 0 {
				t.Errorf("%s: children of span %d cover more than the span", name, i)
			}
		}
	}
}

// BENCHMARK.json at the repository root declares what this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: declared %q (why: %d chars), implemented %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d reported", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: declared %+v, reported %+v", i, m, endToEnd[i])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d reported", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per-layer metric %d: declared %+v, reported %+v", i, m, perLayer[i])
		}
	}
}
