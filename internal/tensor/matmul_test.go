package tensor

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// The parallel/blocked family must be BIT-identical to the naive kernels:
// blocking and row partitioning may not change any per-element accumulation
// order. Sizes straddle the block boundaries (32 rows, 512 cols) and the
// parallel-dispatch FLOP threshold.
func TestMatMulParFamilyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dims := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 2}, {7, 64, 9}, {33, 17, 530},
		{65, 576, 256}, {128, 40, 70},
	}
	for _, d := range dims {
		a := Randn(rng, 1, d.m, d.k)
		b := Randn(rng, 1, d.k, d.n)
		// Sprinkle exact zeros to exercise the zero-skip branches.
		for i := 0; i < len(a.Data); i += 7 {
			a.Data[i] = 0
		}

		want := MatMul(a, b)
		got := MatMulPar(a, b)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("MatMulPar (%d,%d,%d) differs at %d: %v vs %v",
					d.m, d.k, d.n, i, got.Data[i], want.Data[i])
			}
		}

		at := New(d.k, d.m)
		for i := 0; i < d.m; i++ {
			for j := 0; j < d.k; j++ {
				at.Set(a.At(i, j), j, i)
			}
		}
		wantTA := MatMulTransA(at, b)
		gotTA := MatMulTransAPar(at, b)
		for i := range wantTA.Data {
			if gotTA.Data[i] != wantTA.Data[i] {
				t.Fatalf("MatMulTransAPar (%d,%d,%d) differs at %d", d.m, d.k, d.n, i)
			}
		}

		// A·Bᵀ is A times a packed transpose (how nn.Linear forms x·Wᵀ): the
		// same sums as the naive dot products.
		bt := New(d.n, d.k)
		for i := 0; i < d.k; i++ {
			for j := 0; j < d.n; j++ {
				bt.Set(b.At(i, j), j, i)
			}
		}
		wantTB := MatMulTransB(a, bt)
		gotTB := MatMulPar(a, b)
		for i := range wantTB.Data {
			if math.Float64bits(gotTB.Data[i]) != math.Float64bits(wantTB.Data[i]) {
				t.Fatalf("MatMulPar of packed Bᵀ (%d,%d,%d) differs from MatMulTransB at %d", d.m, d.k, d.n, i)
			}
		}
	}
}

// Row-range kernels must compose: computing [0,m) in two disjoint calls
// equals one full call, and the accumulate variant must add on top of
// existing contents.
func TestRowRangeKernelsCompose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, k, n := 10, 12, 14
	a := Randn(rng, 1, m, k)
	b := Randn(rng, 1, k, n)

	full := make([]float64, m*n)
	MatMulInto(full, a.Data, b.Data, m, k, n)
	split := make([]float64, m*n)
	MatMulRowsInto(split, a.Data, b.Data, k, n, 0, 4)
	MatMulRowsInto(split, a.Data, b.Data, k, n, 4, m)
	for i := range full {
		if split[i] != full[i] {
			t.Fatalf("split MatMulRowsInto differs at %d", i)
		}
	}

	acc := make([]float64, m*n)
	MatMulAccRowsInto(acc, n, a.Data, k, b.Data, n, k, n, 0, 4)
	MatMulAccRowsInto(acc, n, a.Data, k, b.Data, n, k, n, 4, m)
	MatMulAccRowsInto(acc, n, a.Data, k, b.Data, n, k, n, 0, m)
	for i := range full {
		if acc[i] != 2*full[i] {
			t.Fatalf("MatMulAccRowsInto must accumulate: got %v want %v at %d",
				acc[i], 2*full[i], i)
		}
	}
}

func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	const n = 1337
	counts := make([]int32, n)
	ParallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
	})
	for i := range counts {
		if c := atomic.LoadInt32(&counts[i]); c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
	ParallelFor(0, func(lo, hi int) { t.Error("ParallelFor(0) must not invoke f") })
}

// Nested ParallelFor must not deadlock (inner calls run inline when the pool
// is saturated).
func TestParallelForNested(t *testing.T) {
	var total int64
	ParallelFor(8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ParallelFor(8, func(l, h int) {
				atomic.AddInt64(&total, int64(h-l))
			})
		}
	})
	if got := atomic.LoadInt64(&total); got != 64 {
		t.Fatalf("nested ParallelFor visited %d inner indices, want 64", got)
	}
}
