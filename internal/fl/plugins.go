package fl

import (
	"sort"
)

// Aggregator combines the parameter vectors uploaded by a round's clients
// into the next global model.
type Aggregator interface {
	Name() string
	// Aggregate combines vecs with the given non-negative client weights.
	Aggregate(vecs [][]float64, weights []float64) []float64
}

// FedAvg is the paper's aggregator: data-size weighted averaging (Eq. 1).
type FedAvg struct{}

// Name identifies the aggregator.
func (FedAvg) Name() string { return "fedavg" }

// Aggregate computes the weighted average of the client vectors.
func (FedAvg) Aggregate(vecs [][]float64, weights []float64) []float64 {
	return WeightedAverage(vecs, weights)
}

// TrimmedMean is a Byzantine-robust aggregator: per coordinate it discards
// the ⌊Frac·k⌋ smallest and largest client values and averages the rest
// (unweighted — trimming and data-size weighting do not compose cleanly).
// With Frac = 0 it degenerates to the unweighted mean.
type TrimmedMean struct {
	Frac float64 // fraction trimmed from EACH end, in [0, 0.5)
}

// Name identifies the aggregator.
func (t TrimmedMean) Name() string { return "trimmed-mean" }

// Aggregate computes the coordinate-wise trimmed mean.
func (t TrimmedMean) Aggregate(vecs [][]float64, _ []float64) []float64 {
	if len(vecs) == 0 {
		return nil
	}
	k := len(vecs)
	drop := int(t.Frac * float64(k))
	if drop < 0 {
		drop = 0
	}
	if 2*drop >= k {
		drop = (k - 1) / 2
	}
	n := len(vecs[0])
	out := make([]float64, n)
	col := make([]float64, k)
	for j := 0; j < n; j++ {
		for i, v := range vecs {
			col[i] = v[j]
		}
		sort.Float64s(col)
		sum := 0.0
		for i := drop; i < k-drop; i++ {
			sum += col[i]
		}
		out[j] = sum / float64(k-2*drop)
	}
	return out
}
