package stat

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// The expected values are what Python's statistics.quantiles(v, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 12, 11}, 10, 12},
		{[]float64{7}, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := Quartiles(c.v)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if s := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("Spread(1..10) = %v, want 1", s)
	}
}

// The tail is read at the highest rung that leaves ten samples beyond it.
func TestTailQ(t *testing.T) {
	for _, c := range []struct {
		n int
		q float64
	}{{1, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {1 << 20, 0.99}} {
		if q := TailQ(c.n); q != c.q {
			t.Errorf("TailQ(%d) = %v, want %v", c.n, q, c.q)
		}
		if q := TailQ(c.n); q > 0.5 && float64(c.n)*(1-q) < 10-1e-9 {
			t.Errorf("TailQ(%d) = %v leaves fewer than ten samples beyond", c.n, q)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0: 1, 0.5: 5, 0.9: 9, 0.91: 10, 1: 10} {
		if got := Percentile(s, q); got != want {
			t.Errorf("Percentile(1..10, %v) = %v, want %v", q, got, want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 150, 50, 100, 130, 70, 100, 100}
	cases := []struct {
		name           string
		parent, change []float64
		higher         bool
		want           Verdict
	}{
		{"lower latency wins every pair by more than the parent's IQR", parent, scale(0.9), false, Improved},
		{"higher throughput wins every pair", parent, scale(1.1), true, Improved},
		{"a gap inside the parent's IQR is no gain", parent, scale(0.995), false, Unchanged},
		{"identical runs", parent, parent, false, Unchanged},
		{"latency worse by more than the bound", parent, scale(1.2), false, Regressed},
		{"throughput worse by more than the bound", parent, scale(0.8), true, Regressed},
		{"worse, but inside the bound", parent, scale(1.05), false, Unchanged},
		{"spread wider than the bound cannot show no-regression", noisy, noisy, false, Unresolved},
	}
	for _, c := range cases {
		if got := Compare(c.parent, c.change, c.higher, 0.10); got.Verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", c.name, got.Verdict, c.want, got)
		}
	}
	// Eight wins of ten is not nine tenths.
	change := scale(0.9)
	change[0], change[1] = parent[0]*1.01, parent[1]*1.01
	if got := Compare(parent, change, false, 0.10); got.Verdict == Improved || got.Wins != 8 {
		t.Errorf("8/10 wins: verdict %s wins %d, want not improved with 8 wins", got.Verdict, got.Wins)
	}
}
