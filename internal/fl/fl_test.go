package fl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSampleClientsDistinctAndInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(100)
		c := 1 + r.Intn(n)
		s := sampleClients(n, c, rng)
		if len(s) != c {
			return false
		}
		seen := map[int]bool{}
		for _, k := range s {
			if k < 0 || k >= n || seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleClientsClampsToN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := sampleClients(3, 10, rng)
	if len(s) != 3 {
		t.Fatalf("got %d clients, want 3", len(s))
	}
}

func TestWeightedAverageExact(t *testing.T) {
	vecs := [][]float64{{1, 2}, {3, 6}}
	w := []float64{1, 3}
	got := WeightedAverage(vecs, w)
	if math.Abs(got[0]-2.5) > 1e-12 || math.Abs(got[1]-5) > 1e-12 {
		t.Fatalf("got %v", got)
	}
}

func TestWeightedAverageEqualWeightsIsMean(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(5)
		n := 1 + r.Intn(8)
		vecs := make([][]float64, k)
		weights := make([]float64, k)
		for i := range vecs {
			vecs[i] = make([]float64, n)
			for j := range vecs[i] {
				vecs[i][j] = r.NormFloat64()
			}
			weights[i] = 1
		}
		got := WeightedAverage(vecs, weights)
		for j := 0; j < n; j++ {
			mean := 0.0
			for i := 0; i < k; i++ {
				mean += vecs[i][j]
			}
			mean /= float64(k)
			if math.Abs(got[j]-mean) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: FedAvg is affine-equivariant — averaging a·v+b equals
// a·average(v)+b.
func TestWeightedAverageAffineEquivariance(t *testing.T) {
	f := func(seed int64, a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e3 ||
			math.IsNaN(b) || math.IsInf(b, 0) || math.Abs(b) > 1e3 {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(4)
		n := 1 + r.Intn(6)
		vecs := make([][]float64, k)
		tv := make([][]float64, k)
		weights := make([]float64, k)
		for i := range vecs {
			vecs[i] = make([]float64, n)
			tv[i] = make([]float64, n)
			for j := range vecs[i] {
				vecs[i][j] = r.NormFloat64()
				tv[i][j] = a*vecs[i][j] + b
			}
			weights[i] = r.Float64() + 0.1
		}
		base := WeightedAverage(vecs, weights)
		trans := WeightedAverage(tv, weights)
		for j := range base {
			want := a*base[j] + b
			if math.Abs(trans[j]-want) > 1e-6*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedAverageZeroWeightIgnored(t *testing.T) {
	vecs := [][]float64{{1, 1}, {100, 100}}
	got := WeightedAverage(vecs, []float64{1, 0})
	if got[0] != 1 || got[1] != 1 {
		t.Fatalf("zero-weight vector leaked: %v", got)
	}
}

// TestFoldRangesTileTheWholeFold pins the range form: folding a vector as
// disjoint ranges, in any split, is bit-identical to one fold over the whole
// vector — for FoldAverage against WeightedAverage, and for FoldDelta
// against the element-wise g + Σw(v−b)/Σw it documents.
func TestFoldRangesTileTheWholeFold(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const k, n = 5, 103
	vecs, bases := make([][]float64, k), make([][]float64, k)
	weights := make([]float64, k)
	g := make([]float64, n)
	for j := range vecs {
		vecs[j], bases[j] = make([]float64, n), make([]float64, n)
		for i := range vecs[j] {
			vecs[j][i], bases[j][i] = r.NormFloat64(), r.NormFloat64()
		}
		weights[j] = 0.5 + 10*r.Float64()
	}
	for i := range g {
		g[i] = r.NormFloat64()
	}
	want := WeightedAverage(vecs, weights)
	wantDelta := make([]float64, n)
	total := 0.0
	for _, w := range weights {
		total += w
	}
	for i := range wantDelta {
		acc := 0.0
		for j := range vecs {
			acc += weights[j] * (vecs[j][i] - bases[j][i])
		}
		wantDelta[i] = g[i] + acc*(1/total)
	}
	for _, cuts := range [][]int{{0, n}, {0, 1, n}, {0, 40, 41, 77, n}} {
		avg, delta := make([]float64, n), make([]float64, n)
		for c := 1; c < len(cuts); c++ {
			FoldAverage(avg, vecs, weights, cuts[c-1], cuts[c])
			FoldDelta(delta, g, vecs, bases, weights, cuts[c-1], cuts[c])
		}
		for i := range want {
			if math.Float64bits(avg[i]) != math.Float64bits(want[i]) ||
				math.Float64bits(delta[i]) != math.Float64bits(wantDelta[i]) {
				t.Fatalf("cuts %v [%d]: fold %v / %v, want %v / %v", cuts, i, avg[i], delta[i], want[i], wantDelta[i])
			}
		}
	}
}

func TestDefaultConfigMatchesPaperConstants(t *testing.T) {
	c := DefaultConfig()
	if c.NumClients != 100 || c.ClientsPerRound != 10 || c.LocalIters != 30 {
		t.Fatalf("N/C/E = %d/%d/%d, want 100/10/30", c.NumClients, c.ClientsPerRound, c.LocalIters)
	}
	if math.Abs(c.Eps-8.0/255) > 1e-12 {
		t.Fatalf("eps = %v, want 8/255", c.Eps)
	}
	if c.TrainPGD != 10 || c.EvalPGD != 20 {
		t.Fatalf("PGD train/eval = %d/%d, want 10/20", c.TrainPGD, c.EvalPGD)
	}
}
