package tensor

import "fmt"

// The naive loops and allocating helpers below are test-only references: the
// blocked GEMM, the parallel products and the strided im2col/col2im kernels
// are all checked against them.

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.Data[t.offset(idx)] = v
}

// MatMul computes the matrix product A·B for 2-D tensors
// A (m×k) and B (k×n), returning an m×n tensor. The inner loops are ordered
// ikj for cache efficiency.
func MatMul(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: MatMul requires 2-D tensors")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v x %v", a.shape, b.shape))
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// MatMulTransA computes Aᵀ·B for A (k×m) and B (k×n), returning m×n.
func MatMulTransA(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: MatMulTransA requires 2-D tensors")
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch %v x %v", a.shape, b.shape))
	}
	out := New(m, n)
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// MatMulTransB computes A·Bᵀ for A (m×k) and B (n×k), returning m×n.
func MatMulTransB(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: MatMulTransB requires 2-D tensors")
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch %v x %v", a.shape, b.shape))
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			s := 0.0
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			orow[j] = s
		}
	}
	return out
}

// Im2Col unrolls a (C,H,W) tensor into a (C·k·k, oh·ow) column matrix.
func Im2Col(x *Tensor, k, stride, pad int) *Tensor {
	if x.NumDims() != 3 {
		panic(fmt.Sprintf("tensor: Im2Col requires a (C,H,W) tensor, got %v", x.Shape()))
	}
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	oh, ow := ConvOutDims(h, w, k, stride, pad)
	col := New(c*k*k, oh*ow)
	Im2ColInto(col.Data, x.Data, c, h, w, k, stride, pad)
	return col
}

// Col2Im scatter-adds a (C·k·k, oh·ow) column matrix into a fresh (C,H,W)
// tensor, the adjoint of Im2Col.
func Col2Im(col *Tensor, c, h, w, k, stride, pad int) *Tensor {
	if col.NumDims() != 2 {
		panic(fmt.Sprintf("tensor: Col2Im requires a 2-D column matrix, got %v", col.Shape()))
	}
	img := New(c, h, w)
	oh, ow := ConvOutDims(h, w, k, stride, pad)
	Col2ImAccStridedInto(img.Data, col.Data, c, h, w, k, stride, pad, oh*ow, 0)
	return img
}
