package tensor

import "fmt"

// im2col/col2im lower 2-D convolution onto GEMM: Im2Col unrolls every k×k
// receptive field of a C×H×W image into one column of a (C·k·k) × (oh·ow)
// matrix, so that a convolution with weights W (outC × C·k·k) becomes the
// matrix product W·col. Col2Im is the adjoint scatter-add, which maps a
// gradient in column space back to image space. Rows are ordered
// (channel, kh, kw) and columns (oy, ox), matching the row-major layout of
// conv weights (outC, C, k, k), so no weight reshuffling is ever needed.

// ConvOutDims returns the spatial output size of a convolution over an h×w
// input with square kernel k, the given stride, and zero padding pad.
func ConvOutDims(h, w, k, stride, pad int) (oh, ow int) {
	oh = (h+2*pad-k)/stride + 1
	ow = (w+2*pad-k)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv output %dx%d not positive for input %dx%d kernel %d stride %d pad %d",
			oh, ow, h, w, k, stride, pad))
	}
	return oh, ow
}

// checkStridedCols panics unless a (rows × ohow) block fits at column off of a
// matrix whose rows are ld elements apart and that holds n elements.
func checkStridedCols(op string, n, rows, ohow, ld, off int) {
	if off < 0 || off+ohow > ld {
		panic(fmt.Sprintf("tensor: %s columns [%d,%d) outside row stride %d", op, off, off+ohow, ld))
	}
	if need := (rows-1)*ld + off + ohow; rows > 0 && n < need {
		panic(fmt.Sprintf("tensor: %s column matrix has %d elements, need %d", op, n, need))
	}
}

// Im2ColInto unrolls src, one C×H×W image, into dst, a row-major
// (C·k·k) × (oh·ow) column matrix. Every dst element is written (padding
// positions as zero), so dst needs no pre-clearing.
func Im2ColInto(dst, src []float64, c, h, w, k, stride, pad int) {
	oh, ow := ConvOutDims(h, w, k, stride, pad)
	if len(dst) != c*k*k*oh*ow {
		panic(fmt.Sprintf("tensor: Im2ColInto dst has %d elements, need %d", len(dst), c*k*k*oh*ow))
	}
	Im2ColStridedInto(dst, src, c, h, w, k, stride, pad, oh*ow, 0)
}

// Im2ColStridedInto unrolls src, one C×H×W image, into columns
// [off, off+oh·ow) of dst, a (C·k·k)-row column matrix whose rows are ld
// elements apart: the batch-folded layout, where every image of a batch owns
// its own column range of one wide matrix. Only those columns are written,
// each of them fully (padding positions as zero).
func Im2ColStridedInto(dst, src []float64, c, h, w, k, stride, pad, ld, off int) {
	oh, ow := ConvOutDims(h, w, k, stride, pad)
	ohow := oh * ow
	checkStridedCols("Im2ColStridedInto", len(dst), c*k*k, ohow, ld, off)
	if len(src) != c*h*w {
		panic(fmt.Sprintf("tensor: Im2ColStridedInto src has %d elements, need %d", len(src), c*h*w))
	}
	r := 0
	for ic := 0; ic < c; ic++ {
		plane := src[ic*h*w : (ic+1)*h*w]
		for kh := 0; kh < k; kh++ {
			for kw := 0; kw < k; kw++ {
				drow := dst[r*ld+off : r*ld+off+ohow]
				r++
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride + kh - pad
					dseg := drow[oy*ow : (oy+1)*ow]
					if iy < 0 || iy >= h {
						for i := range dseg {
							dseg[i] = 0
						}
						continue
					}
					xrow := plane[iy*w : (iy+1)*w]
					if stride == 1 {
						// Valid ox satisfy 0 ≤ ox+kw−pad < w; both bounds are
						// clamped into [0, ow] (wide padding can push the raw
						// values past either end).
						lo, hi := pad-kw, w-kw+pad
						if lo < 0 {
							lo = 0
						} else if lo > ow {
							lo = ow
						}
						if hi < 0 {
							hi = 0
						} else if hi > ow {
							hi = ow
						}
						for i := 0; i < lo; i++ {
							dseg[i] = 0
						}
						if hi > lo {
							copy(dseg[lo:hi], xrow[lo+kw-pad:hi+kw-pad])
						}
						for i := hi; i < ow; i++ {
							dseg[i] = 0
						}
					} else {
						for ox := 0; ox < ow; ox++ {
							ix := ox*stride + kw - pad
							if ix < 0 || ix >= w {
								dseg[ox] = 0
							} else {
								dseg[ox] = xrow[ix]
							}
						}
					}
				}
			}
		}
	}
}

// Col2ImAccInto scatter-adds col, a row-major (C·k·k) × (oh·ow) matrix, back
// into dst, a C×H×W image. dst is accumulated into, not cleared: overlapping
// receptive fields sum, making this the exact adjoint of Im2ColInto.
func Col2ImAccInto(dst, col []float64, c, h, w, k, stride, pad int) {
	oh, ow := ConvOutDims(h, w, k, stride, pad)
	if len(col) != c*k*k*oh*ow {
		panic(fmt.Sprintf("tensor: Col2ImAccInto col has %d elements, need %d", len(col), c*k*k*oh*ow))
	}
	Col2ImAccStridedInto(dst, col, c, h, w, k, stride, pad, oh*ow, 0)
}

// Col2ImAccStridedInto scatter-adds columns [off, off+oh·ow) of col, a
// (C·k·k)-row matrix whose rows are ld elements apart, into dst, a C×H×W
// image: the adjoint of Im2ColStridedInto.
func Col2ImAccStridedInto(dst, col []float64, c, h, w, k, stride, pad, ld, off int) {
	oh, ow := ConvOutDims(h, w, k, stride, pad)
	ohow := oh * ow
	checkStridedCols("Col2ImAccStridedInto", len(col), c*k*k, ohow, ld, off)
	if len(dst) != c*h*w {
		panic(fmt.Sprintf("tensor: Col2ImAccStridedInto dst has %d elements, need %d", len(dst), c*h*w))
	}
	r := 0
	for ic := 0; ic < c; ic++ {
		plane := dst[ic*h*w : (ic+1)*h*w]
		for kh := 0; kh < k; kh++ {
			for kw := 0; kw < k; kw++ {
				crow := col[r*ld+off : r*ld+off+ohow]
				r++
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride + kh - pad
					if iy < 0 || iy >= h {
						continue
					}
					xrow := plane[iy*w : (iy+1)*w]
					cseg := crow[oy*ow : (oy+1)*ow]
					if stride == 1 {
						lo, hi := pad-kw, w-kw+pad
						if lo < 0 {
							lo = 0
						}
						if hi > ow {
							hi = ow
						}
						off := kw - pad
						for i := lo; i < hi; i++ {
							xrow[i+off] += cseg[i]
						}
					} else {
						for ox := 0; ox < ow; ox++ {
							ix := ox*stride + kw - pad
							if ix < 0 || ix >= w {
								continue
							}
							xrow[ix] += cseg[ox]
						}
					}
				}
			}
		}
	}
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
	Col2ImAccInto(img.Data, col.Data, c, h, w, k, stride, pad)
	return img
}
