// Package stat holds what the benchmark and benchcmp share — the two file
// formats that pass between them, and the small statistics:
// quartiles as Python's statistics.quantiles(n=4) computes them (the driver
// that accepts or rejects a change uses that function, so spreads printed
// here are the spreads it sees), nearest-rank percentiles, the "highest
// percentile with at least ten samples beyond it" rule, and the verdict
// rule that compares two sets of runs.
package stat

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Sets is the file `bench -sets N -out` writes and benchcmp reads: every
// untraced run's end-to-end values per workload and metric, in run order, so
// the runs of two commits pair up by index.
type Sets struct {
	Seconds   float64                         `json:"seconds"`
	Seeds     []int64                         `json:"seeds"`
	Workloads map[string]map[string][]float64 `json:"workloads"`
}

// Spec is the part of BENCHMARK.json the repeatability mode and benchcmp
// read: each end-to-end metric's direction and regression bound.
type Spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// ReadJSON decodes the file at path into dst.
func ReadJSON(path string, dst any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, dst); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Sorted returns an ascending copy of v.
func Sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// Median returns the median of v (0 for an empty slice).
func Median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := Sorted(v)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile of v by the exclusive
// method of Python's statistics.quantiles(v, n=4). Fewer than two values
// have no spread: both quartiles are the value itself.
func Quartiles(v []float64) (q1, q3 float64) {
	s := Sorted(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// Spread is the distance between the quartiles as a share of the median,
// the number the driver holds against a metric's bound.
func Spread(v []float64) float64 {
	med := Median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := Quartiles(v)
	return (q3 - q1) / math.Abs(med)
}

// Percentile returns the nearest-rank q-quantile (0 ≤ q ≤ 1) of an
// ascending slice.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailLadder is the fixed set of percentiles a tail latency is read at.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75}

// TailQ returns the highest percentile of the ladder that still has at
// least ten of n samples beyond it; with fewer than forty samples no rung
// qualifies and the median is all the sample supports.
func TailQ(n int) float64 {
	for _, q := range tailLadder {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0.5
}

// Verdict classifies a change against its parent for one metric.
type Verdict string

const (
	Improved   Verdict = "improved"
	Unchanged  Verdict = "unchanged"
	Regressed  Verdict = "regressed"
	Unresolved Verdict = "unresolved"
)

// Comparison is one row of benchcmp: both sides' medians and quartiles, the
// change's median as a ratio of the parent's, and the verdict.
type Comparison struct {
	ParentMedian, ParentQ1, ParentQ3 float64
	ChangeMedian, ChangeQ1, ChangeQ3 float64
	Ratio                            float64 // change median ÷ parent median
	Wins, Losses, Pairs              int     // change vs parent over paired runs
	Verdict                          Verdict
}

// Compare applies the rule of the choosing-metrics guide to paired runs
// (parent[i] and change[i] ran back to back). The change improved when it
// wins at least nine tenths of the pairs, ties counting for neither side,
// and the medians differ by more than the parent's own interquartile
// distance. It regressed when its median is worse than the parent's by more
// than bound (a share of the parent's median). Otherwise, a spread wider
// than the bound on either side cannot show "no regression": unresolved.
func Compare(parent, change []float64, higherBetter bool, bound float64) Comparison {
	c := Comparison{ParentMedian: Median(parent), ChangeMedian: Median(change)}
	c.ParentQ1, c.ParentQ3 = Quartiles(parent)
	c.ChangeQ1, c.ChangeQ3 = Quartiles(change)
	if c.ParentMedian != 0 {
		c.Ratio = c.ChangeMedian / c.ParentMedian
	}
	c.Pairs = min(len(parent), len(change))
	for i := 0; i < c.Pairs; i++ {
		better := change[i] < parent[i]
		if higherBetter {
			better = change[i] > parent[i]
		}
		switch {
		case change[i] == parent[i]:
		case better:
			c.Wins++
		default:
			c.Losses++
		}
	}
	gain := c.ParentMedian - c.ChangeMedian // positive = change is better
	if higherBetter {
		gain = -gain
	}
	switch {
	case c.Pairs > 0 && float64(c.Wins) >= 0.9*float64(c.Pairs) && gain > c.ParentQ3-c.ParentQ1:
		c.Verdict = Improved
	case -gain > bound*math.Abs(c.ParentMedian):
		c.Verdict = Regressed
	case Spread(parent) > bound || Spread(change) > bound:
		c.Verdict = Unresolved
	default:
		c.Verdict = Unchanged
	}
	return c
}
