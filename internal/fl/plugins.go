package fl

import (
	"math/rand"
	"sort"
)

// ClientSampler selects which clients participate in a round.
type ClientSampler interface {
	Name() string
	// Sample returns clientsPerRound distinct indices in [0, numClients).
	Sample(numClients, clientsPerRound int, rng *rand.Rand) []int
}

// UniformSampler is the paper's sampler: a uniform draw without
// replacement.
type UniformSampler struct{}

// Name identifies the sampler.
func (UniformSampler) Name() string { return "uniform" }

// Sample draws clientsPerRound distinct clients uniformly.
func (UniformSampler) Sample(n, c int, rng *rand.Rand) []int {
	return sampleClients(n, c, rng)
}

// RoundRobinSampler cycles deterministically through the fleet, giving
// every client the same participation count over time; useful for coverage
// experiments and debugging.
type RoundRobinSampler struct {
	next int
}

// Name identifies the sampler.
func (s *RoundRobinSampler) Name() string { return "round-robin" }

// Sample returns the next clientsPerRound clients in cyclic order.
func (s *RoundRobinSampler) Sample(n, c int, _ *rand.Rand) []int {
	if c > n {
		c = n
	}
	out := make([]int, c)
	for i := range out {
		out[i] = s.next % n
		s.next++
	}
	return out
}

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
