package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// forcePortable runs f with the assembly tile switched off, so gemmBlock takes
// gemmTileGo for every tile. Tests in this package do not run in parallel, so
// flipping the package variable is safe.
func forcePortable(f func()) {
	saved := useAVX2
	useAVX2 = false
	defer func() { useAVX2 = saved }()
	f()
}

// gemmTestValues fills s with a mix the kernels must agree on bit for bit:
// normal values of both signs, ±0, denormals, and magnitudes far enough apart
// that every rounding step matters.
func gemmTestValues(rng *rand.Rand, s []float64) {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-310, -1.5e-308, 1, -1, 1e16, -1e-16}
	for i := range s {
		if rng.Intn(4) == 0 {
			s[i] = special[rng.Intn(len(special))]
		} else {
			s[i] = rng.NormFloat64() * math.Pow(2, float64(rng.Intn(41)-20))
		}
	}
}

// The assembly tile and its portable twin must agree in every bit, for both
// stride forms of the left operand, on operands that start at odd element
// offsets of a larger buffer (so no load is 32-byte aligned) and whose rows are
// wider than the product. Rows and columns outside the product must not be
// written.
func TestGEMMTileBitEqualsPortableTwin(t *testing.T) {
	if !useAVX2 {
		t.Skip("no assembly tile on this machine: every path is already the portable twin")
	}
	ms := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 27, 32}
	ks := []int{0, 1, 2, 27, 288}
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64, 256}
	rng := rand.New(rand.NewSource(99))
	const sentinel = 12345.678
	for _, m := range ms {
		for _, k := range ks {
			for _, n := range ns {
				ldb, ldc := n+3, n+5
				abuf := make([]float64, m*k+7)
				bbuf := make([]float64, k*ldb+7)
				gemmTestValues(rng, abuf)
				gemmTestValues(rng, bbuf)
				a, b := abuf[3:3+m*k], bbuf[1:]
				for _, form := range []string{"A·B", "Aᵀ·B"} {
					run := func(dst []float64) {
						if form == "A·B" {
							MatMulStridedInto(dst, ldc, a, b, ldb, m, k, n)
						} else {
							MatMulTransAStridedInto(dst, ldc, a, b, ldb, k, m, n)
						}
					}
					newDst := func() []float64 {
						d := make([]float64, m*ldc+5)
						for i := range d {
							d[i] = sentinel
						}
						return d
					}
					got, want := newDst(), newDst()
					run(got[5:])
					forcePortable(func() { run(want[5:]) })
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s m=%d k=%d n=%d: element %d is %x (assembly) vs %x (portable)",
								form, m, k, n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
					for i := 0; i < m; i++ {
						for j := n; j < ldc && 5+i*ldc+j < len(got); j++ {
							if got[5+i*ldc+j] != sentinel {
								t.Fatalf("%s m=%d k=%d n=%d: wrote outside the product at row %d col %d", form, m, k, n, i, j)
							}
						}
					}
				}
			}
		}
	}
}

// The twin itself is held to the definition: one scalar accumulator per
// element, ascending p, starting from +0 (so a sum of −0 terms is +0).
func TestGEMMMatchesScalarDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []struct{ m, k, n int }{{1, 1, 1}, {4, 3, 8}, {5, 7, 9}, {27, 4, 40}, {8, 36, 17}} {
		a := make([]float64, d.m*d.k)
		b := make([]float64, d.k*d.n)
		gemmTestValues(rng, a)
		gemmTestValues(rng, b)
		at := make([]float64, len(a)) // k×m transpose of a
		for i := 0; i < d.m; i++ {
			for p := 0; p < d.k; p++ {
				at[p*d.m+i] = a[i*d.k+p]
			}
		}
		want := make([]float64, d.m*d.n)
		for i := 0; i < d.m; i++ {
			for j := 0; j < d.n; j++ {
				s := 0.0
				for p := 0; p < d.k; p++ {
					s += a[i*d.k+p] * b[p*d.n+j]
				}
				want[i*d.n+j] = s
			}
		}
		check := func(name string, got []float64) {
			t.Helper()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s %+v: element %d is %v, want %v", name, d, i, got[i], want[i])
				}
			}
		}
		for _, portable := range []bool{false, true} {
			ab, atb := make([]float64, len(want)), make([]float64, len(want))
			run := func() {
				MatMulInto(ab, a, b, d.m, d.k, d.n)
				MatMulTransAStridedInto(atb, d.n, at, b, d.n, d.k, d.m, d.n)
			}
			if portable {
				forcePortable(run)
			} else {
				run()
			}
			check(fmt.Sprintf("MatMulInto portable=%v", portable), ab)
			check(fmt.Sprintf("MatMulTransAStridedInto portable=%v", portable), atb)
		}
	}
}

// The wrappers hand raw pointers to assembly, so a slice one element short of
// what the shape needs must panic with a message naming the shape, never read
// or write past it.
func TestGEMMWrappersPanicOnShortSlices(t *testing.T) {
	const m, k, n = 8, 5, 16
	full := func(sz int) []float64 { return make([]float64, sz) }
	cases := []struct {
		name string
		call func()
	}{
		{"MatMulInto short dst", func() { MatMulInto(full(m*n-1), full(m*k), full(k*n), m, k, n) }},
		{"MatMulInto short a", func() { MatMulInto(full(m*n), full(m*k-1), full(k*n), m, k, n) }},
		{"MatMulInto short b", func() { MatMulInto(full(m*n), full(m*k), full(k*n-1), m, k, n) }},
		{"MatMulRowsInto rows past a", func() { MatMulRowsInto(full((m+4)*n), full(m*k), full(k*n), k, n, m, m+4) }},
		{"MatMulRowsInto negative row", func() { MatMulRowsInto(full(m*n), full(m*k), full(k*n), k, n, -1, m) }},
		{"MatMulTransAStridedInto short a", func() { MatMulTransAStridedInto(full(m*n), n, full(k*m-1), full(k*n), n, k, m, n) }},
		{"MatMulTransAStridedInto short b", func() { MatMulTransAStridedInto(full(m*n), n, full(k*m), full(k*n-1), n, k, m, n) }},
		{"MatMulTransAStridedInto short dst", func() { MatMulTransAStridedInto(full(m*n-1), n, full(k*m), full(k*n), n, k, m, n) }},
		{"MatMulStridedInto n beyond ldb", func() { MatMulStridedInto(full(m*n), n, full(m*k), full(k*n), n-1, m, k, n) }},
		{"MatMulStridedInto n beyond ldc", func() { MatMulStridedInto(full(m*n), n-1, full(m*k), full(k*n), n, m, k, n) }},
		{"MatMulStridedInto short strided b", func() { MatMulStridedInto(full(m*n), n, full(m*k), full((k-1)*(n+8)+n-1), n+8, m, k, n) }},
		{"MatMulTransAStridedInto short strided dst", func() {
			MatMulTransAStridedInto(full((m-1)*(n+8)+n-1), n+8, full(k*m), full(k*n), n, k, m, n)
		}},
		{"MatMulTransBAccRowsInto short b", func() { MatMulTransBAccRowsInto(full(m*n), full(m*k), full(n*k-1), k, n, 0, m) }},
		{"MatMulTransBAccRowsStridedInto stride under k", func() {
			MatMulTransBAccRowsStridedInto(full(m*n), full(m*k), k-1, full(n*k), k, k, n, 0, m)
		}},
	}
	for _, cs := range cases {
		for _, portable := range []bool{false, true} {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%s (portable=%v): no panic", cs.name, portable)
					}
					msg, ok := r.(string)
					if !ok || !strings.HasPrefix(msg, "tensor: ") {
						t.Fatalf("%s (portable=%v): panic %v is not a tensor shape message", cs.name, portable, r)
					}
				}()
				if portable {
					forcePortable(cs.call)
				} else {
					cs.call()
				}
			}()
		}
	}
}

// The row-strided dW kernel on sub-matrices of wider buffers must accumulate
// exactly what the dense form does on packed copies.
func TestMatMulTransBAccStridedMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, d := range []struct{ m, k, n int }{{1, 1, 1}, {3, 4, 5}, {4, 16, 9}, {7, 1, 2}} {
		lda, ldb := d.k+3, d.k+6
		a := Randn(rng, 1, d.m*lda+2).Data[2:]
		b := Randn(rng, 1, d.n*ldb+1).Data[1:]
		ap, bp := make([]float64, d.m*d.k), make([]float64, d.n*d.k)
		for i := 0; i < d.m; i++ {
			copy(ap[i*d.k:(i+1)*d.k], a[i*lda:])
		}
		for j := 0; j < d.n; j++ {
			copy(bp[j*d.k:(j+1)*d.k], b[j*ldb:])
		}
		got, want := Randn(rng, 1, d.m*d.n).Data, make([]float64, d.m*d.n)
		copy(want, got)
		MatMulTransBAccRowsStridedInto(got, a, lda, b, ldb, d.k, d.n, 0, d.m)
		MatMulTransBAccRowsInto(want, ap, bp, d.k, d.n, 0, d.m)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%+v: element %d is %v, want %v", d, i, got[i], want[i])
			}
		}
	}
}

// The suites that pin the GEMM and im2col families to the naive references
// run a second time over the portable twin, which is what every platform but
// amd64-with-AVX2 executes.
func TestPortablePathPassesKernelSuites(t *testing.T) {
	if !useAVX2 {
		t.Skip("the plain run of these suites already took the portable path")
	}
	forcePortable(func() {
		t.Run("MatMulParFamilyBitIdentical", TestMatMulParFamilyBitIdentical)
		t.Run("RowRangeKernelsCompose", TestRowRangeKernelsCompose)
		t.Run("GEMMWrappersPanicOnShortSlices", TestGEMMWrappersPanicOnShortSlices)
		t.Run("Im2ColMatchesNaive", TestIm2ColMatchesNaive)
		t.Run("Col2ImIsAdjointOfIm2Col", TestCol2ImIsAdjointOfIm2Col)
		t.Run("Col2ImCountsOverlaps", TestCol2ImCountsOverlaps)
		t.Run("StridedIm2ColMatchesPerImage", TestStridedIm2ColMatchesPerImage)
	})
}

// vggShapes are the convolutions of VGG16-S at the benchmark's scale (width 4,
// 3×16×16 inputs): output channels, InC·K², and output map size.
var vggShapes = []struct {
	name             string
	outC, ickk, ohow int
}{
	{"conv1", 4, 27, 256}, {"conv2", 4, 36, 256},
	{"conv3", 8, 36, 64}, {"conv4", 8, 72, 64},
	{"conv5", 16, 72, 16}, {"conv6-7", 16, 144, 16},
	{"conv8", 32, 144, 4}, {"conv9-10", 32, 288, 4},
	{"conv11-13", 32, 288, 1},
}

// BenchmarkGEMMShapes reports GFLOP/s for the forward (W·col) and dX (Wᵀ·dY)
// GEMM of every VGG16-S layer shape, as one image's n = oh·ow columns and as
// the batch-8 fold's N = 8·oh·ow: the per-shape baseline for kernel work.
func BenchmarkGEMMShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range vggShapes {
		for _, fold := range []struct {
			name string
			n    int
		}{{"image", s.ohow}, {"fold8", (8*s.ohow + 7) &^ 7}} {
			w := Randn(rng, 1, s.outC*s.ickk).Data
			col := Randn(rng, 1, s.ickk*fold.n).Data
			dy := Randn(rng, 1, s.outC*fold.n).Data
			out := make([]float64, s.outC*fold.n)
			dcol := make([]float64, s.ickk*fold.n)
			flops := 2 * float64(s.outC*s.ickk*fold.n)
			report := func(b *testing.B) {
				b.ReportMetric(flops*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
			}
			b.Run(fmt.Sprintf("%s/fwd/%s/n=%d", s.name, fold.name, fold.n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MatMulInto(out, w, col, s.outC, s.ickk, fold.n)
				}
				report(b)
			})
			b.Run(fmt.Sprintf("%s/dX/%s/n=%d", s.name, fold.name, fold.n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MatMulTransAStridedInto(dcol, fold.n, w, dy, fold.n, s.outC, s.ickk, fold.n)
				}
				report(b)
			})
		}
	}
}
