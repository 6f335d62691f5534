package tensor

import "fmt"

// GEMM kernels and their goroutine-parallel wrappers.
//
// Every kernel applies the contributions of the shared dimension p in
// strictly ascending order to each output element, starting from +0, exactly
// like the naive loops in MatMul/MatMulTransA/MatMulTransB. Register tiling
// only changes *which elements* are in flight together, never the per-element
// accumulation order, so for finite inputs the tiled, vectorized and parallel
// variants are bit-identical to the naive ones — the property the convolution
// backend's equivalence tests rely on. Parallelism partitions the output into
// contiguous row or column ranges with disjoint writes, so results are also
// independent of worker count and scheduling.
//
// A·B and Aᵀ·B share one tile driver, gemmBlock. It addresses the left
// operand through two strides, op(A)[i][p] = a[i·aRow + p·aP] — (k, 1) reads
// a row-major A, (1, m) reads its transpose in place — and walks the output
// in 4-row × 8-column tiles. On amd64 with AVX2 a full tile runs
// gemm4x8AVX2 (gemm_amd64.s); every other tile, and every tile on other
// platforms, runs its portable twin gemmTileGo. Column tiles are the outer
// loop so the active k×8 panel of B stays cache-resident while A streams
// through.

// gemmBlock computes rows [i0, i1) of the n-column product dst = op(A)·B,
// where op(A)[i][p] = a[i·aRow + p·aP], B[p][j] = b[p·ldb + j] and
// dst[i][j] = dst[i·ldc + j], overwriting those rows. op names the caller in
// panics. All extents are checked here, once, because the assembly tile is
// outside Go's bounds checks.
func gemmBlock(op string, dst []float64, ldc int, a []float64, aRow, aP int, b []float64, ldb, k, n, i0, i1 int) {
	if i0 < 0 || i1 < i0 || n < 0 || k < 0 || n > ldb || n > ldc || aRow < 0 || aP < 0 {
		panic(fmt.Sprintf("tensor: %s bad shape rows [%d,%d) n %d k %d strides a (%d,%d) b %d dst %d",
			op, i0, i1, n, k, aRow, aP, ldb, ldc))
	}
	if i1 == i0 || n == 0 {
		return
	}
	if need := (i1-1)*ldc + n; len(dst) < need {
		panic(fmt.Sprintf("tensor: %s dst has %d elements, need %d", op, len(dst), need))
	}
	if k == 0 {
		for i := i0; i < i1; i++ {
			row := dst[i*ldc : i*ldc+n]
			for j := range row {
				row[j] = 0
			}
		}
		return
	}
	if need := (i1-1)*aRow + (k-1)*aP + 1; len(a) < need {
		panic(fmt.Sprintf("tensor: %s a has %d elements, need %d", op, len(a), need))
	}
	if need := (k-1)*ldb + n; len(b) < need {
		panic(fmt.Sprintf("tensor: %s b has %d elements, need %d", op, len(b), need))
	}
	for j := 0; j < n; j += 8 {
		nc := min(8, n-j)
		for i := i0; i < i1; i += 4 {
			mr := min(4, i1-i)
			if useAVX2 && mr == 4 && nc == 8 {
				gemm4x8AVX2(&dst[i*ldc+j], ldc, &a[i*aRow], aRow, aP, &b[j], ldb, k)
			} else {
				gemmTileGo(dst[i*ldc+j:], ldc, a[i*aRow:], aRow, aP, b[j:], ldb, k, mr, nc)
			}
		}
	}
}

// gemmTileGo is the portable twin of gemm4x8AVX2 and the reference the tests
// hold it to: c[r·ldc + j] = Σ_p a[r·aRow + p·aP] · b[p·ldb + j] for r < mr,
// j < nc, each sum taken in ascending p from +0 with a separately rounded
// multiply and add. It also serves the edge tiles (mr < 4 or nc < 8). Full
// rows of four run a 4×4 register tile per half; what is left falls to one
// accumulator per element.
func gemmTileGo(c []float64, ldc int, a []float64, aRow, aP int, b []float64, ldb, k, mr, nc int) {
	j := 0
	if mr == 4 {
		a0, a1, a2, a3 := a, a[aRow:], a[2*aRow:], a[3*aRow:]
		for ; j+4 <= nc; j += 4 {
			var c00, c01, c02, c03 float64
			var c10, c11, c12, c13 float64
			var c20, c21, c22, c23 float64
			var c30, c31, c32, c33 float64
			for p, ia, ib := 0, 0, j; p < k; p, ia, ib = p+1, ia+aP, ib+ldb {
				bp := b[ib : ib+4 : ib+4]
				b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
				v := a0[ia]
				c00 += v * b0
				c01 += v * b1
				c02 += v * b2
				c03 += v * b3
				v = a1[ia]
				c10 += v * b0
				c11 += v * b1
				c12 += v * b2
				c13 += v * b3
				v = a2[ia]
				c20 += v * b0
				c21 += v * b1
				c22 += v * b2
				c23 += v * b3
				v = a3[ia]
				c30 += v * b0
				c31 += v * b1
				c32 += v * b2
				c33 += v * b3
			}
			d := c[j : j+4 : j+4]
			d[0], d[1], d[2], d[3] = c00, c01, c02, c03
			d = c[ldc+j : ldc+j+4 : ldc+j+4]
			d[0], d[1], d[2], d[3] = c10, c11, c12, c13
			d = c[2*ldc+j : 2*ldc+j+4 : 2*ldc+j+4]
			d[0], d[1], d[2], d[3] = c20, c21, c22, c23
			d = c[3*ldc+j : 3*ldc+j+4 : 3*ldc+j+4]
			d[0], d[1], d[2], d[3] = c30, c31, c32, c33
		}
	}
	for ; j < nc; j++ {
		for r := 0; r < mr; r++ {
			s := 0.0
			for p, ia, ib := 0, r*aRow, j; p < k; p, ia, ib = p+1, ia+aP, ib+ldb {
				s += a[ia] * b[ib]
			}
			c[r*ldc+j] = s
		}
	}
}

// MatMulRowsInto computes rows [i0, i1) of dst = A·B for row-major
// a (≥i1×k), b (k×n), dst (≥i1×n), overwriting those dst rows.
func MatMulRowsInto(dst, a, b []float64, k, n, i0, i1 int) {
	gemmBlock("MatMulRowsInto", dst, n, a, k, 1, b, n, k, n, i0, i1)
}

// MatMulInto computes dst = A·B for row-major a (m×k), b (k×n), dst (m×n).
func MatMulInto(dst, a, b []float64, m, k, n int) {
	MatMulStridedInto(dst, n, a, b, n, m, k, n)
}

// MatMulStridedInto computes dst = A·B for row-major a (m×k), b (k×n) whose
// rows are ldb elements apart and dst (m×n) whose rows are ldc apart: a
// column range of a wider matrix is its sub-slice at the first column with
// the wide matrix's row stride, which is how the batch-folded convolution
// multiplies one panel of its column matrix at a time.
func MatMulStridedInto(dst []float64, ldc int, a, b []float64, ldb, m, k, n int) {
	gemmBlock("MatMulStridedInto", dst, ldc, a, k, 1, b, ldb, k, n, 0, m)
}

// MatMulTransARowsInto computes rows [i0, i1) of dst = Aᵀ·B for row-major
// a (kk×m), b (kk×n), dst (m×n), overwriting those dst rows. Rows of dst
// correspond to columns of a, read in place through the tile's strides.
func MatMulTransARowsInto(dst, a, b []float64, kk, m, n, i0, i1 int) {
	gemmBlock("MatMulTransARowsInto", dst, n, a, 1, m, b, n, kk, n, i0, i1)
}

// MatMulTransAStridedInto computes dst = Aᵀ·B for row-major a (kk×m),
// b (kk×n) whose rows are ldb elements apart and dst (m×n) whose rows are ldc
// apart.
func MatMulTransAStridedInto(dst []float64, ldc int, a, b []float64, ldb, kk, m, n int) {
	gemmBlock("MatMulTransAStridedInto", dst, ldc, a, 1, m, b, ldb, kk, n, 0, m)
}

// MatMulTransBAccRowsStridedInto accumulates rows [i0, i1) of dst += A·Bᵀ for
// a whose rows (≥i1 of them, k long) are lda elements apart, b whose rows (n
// of them, k long) are ldb apart, and row-major dst (≥i1×n). Each dst element
// receives one fully-reduced dot product, so repeated calls (e.g. once per
// image of a batch) accumulate in caller-controlled order.
func MatMulTransBAccRowsStridedInto(dst, a []float64, lda int, b []float64, ldb, k, n, i0, i1 int) {
	if i0 < 0 || i1 < i0 || k < 0 || n < 0 || lda < k || ldb < k {
		panic(fmt.Sprintf("tensor: MatMulTransBAccRowsStridedInto bad shape rows [%d,%d) k %d n %d strides %d, %d",
			i0, i1, k, n, lda, ldb))
	}
	if i1 == i0 || n == 0 {
		return
	}
	if need := (i1-1)*lda + k; len(a) < need {
		panic(fmt.Sprintf("tensor: MatMulTransBAccRowsStridedInto a has %d elements, need %d", len(a), need))
	}
	if need := (n-1)*ldb + k; len(b) < need {
		panic(fmt.Sprintf("tensor: MatMulTransBAccRowsStridedInto b has %d elements, need %d", len(b), need))
	}
	if need := i1 * n; len(dst) < need {
		panic(fmt.Sprintf("tensor: MatMulTransBAccRowsStridedInto dst has %d elements, need %d", len(dst), need))
	}
	i := i0
	for ; i+2 <= i1; i += 2 {
		a0 := a[(i+0)*lda : (i+0)*lda+k]
		a1 := a[(i+1)*lda : (i+1)*lda+k]
		j := 0
		for ; j+2 <= n; j += 2 {
			b0 := b[(j+0)*ldb : (j+0)*ldb+k]
			b1 := b[(j+1)*ldb : (j+1)*ldb+k]
			var c00, c01, c10, c11 float64
			for p, v0 := range a0 {
				v1 := a1[p]
				w0, w1 := b0[p], b1[p]
				c00 += v0 * w0
				c01 += v0 * w1
				c10 += v1 * w0
				c11 += v1 * w1
			}
			dst[(i+0)*n+j] += c00
			dst[(i+0)*n+j+1] += c01
			dst[(i+1)*n+j] += c10
			dst[(i+1)*n+j+1] += c11
		}
		for ; j < n; j++ {
			brow := b[j*ldb : j*ldb+k]
			var c0, c1 float64
			for p, v0 := range a0 {
				c0 += v0 * brow[p]
				c1 += a1[p] * brow[p]
			}
			dst[(i+0)*n+j] += c0
			dst[(i+1)*n+j] += c1
		}
	}
	for ; i < i1; i++ {
		arow := a[i*lda : i*lda+k]
		orow := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*ldb : j*ldb+k]
			s := 0.0
			for p, av := range arow {
				s += av * brow[p]
			}
			orow[j] += s
		}
	}
}

// MatMulTransBAccRowsInto is MatMulTransBAccRowsStridedInto for dense
// row-major a (≥i1×k) and b (n×k).
func MatMulTransBAccRowsInto(dst, a, b []float64, k, n, i0, i1 int) {
	MatMulTransBAccRowsStridedInto(dst, a, k, b, k, k, n, i0, i1)
}

func check2D(a, b *Tensor, op string) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires 2-D tensors, got %v and %v", op, a.shape, b.shape))
	}
}

// MatMulPar computes A·B like MatMul, parallelizing over output row blocks
// on the package worker pool. Bit-identical to MatMul for finite inputs.
func MatMulPar(a, b *Tensor) *Tensor {
	check2D(a, b, "MatMulPar")
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulPar shape mismatch %v x %v", a.shape, b.shape))
	}
	out := New(m, n)
	ParallelForWork(m, m*k*n, func(lo, hi int) {
		MatMulRowsInto(out.Data, a.Data, b.Data, k, n, lo, hi)
	})
	return out
}

// MatMulTransAPar computes Aᵀ·B like MatMulTransA, parallelizing over output
// row blocks. Bit-identical to MatMulTransA for finite inputs.
func MatMulTransAPar(a, b *Tensor) *Tensor {
	check2D(a, b, "MatMulTransAPar")
	kk, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if kk != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransAPar shape mismatch %v x %v", a.shape, b.shape))
	}
	out := New(m, n)
	ParallelForWork(m, m*kk*n, func(lo, hi int) {
		MatMulTransARowsInto(out.Data, a.Data, b.Data, kk, m, n, lo, hi)
	})
	return out
}

// MatMulTransBPar computes A·Bᵀ like MatMulTransB, parallelizing over output
// row blocks. Bit-identical to MatMulTransB for finite inputs.
func MatMulTransBPar(a, b *Tensor) *Tensor {
	check2D(a, b, "MatMulTransBPar")
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransBPar shape mismatch %v x %v", a.shape, b.shape))
	}
	out := New(m, n)
	ParallelForWork(m, m*k*n, func(lo, hi int) {
		MatMulTransBAccRowsInto(out.Data, a.Data, b.Data, k, n, lo, hi)
	})
	return out
}
