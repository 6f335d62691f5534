package tensor

import "fmt"

// im2col/col2im lower 2-D convolution onto GEMM: Im2Col unrolls every k×k
// receptive field of a C×H×W image into one column of a (C·k·k) × (oh·ow)
// matrix, so that a convolution with weights W (outC × C·k·k) becomes the
// matrix product W·col. Col2Im is the adjoint scatter-add, which maps a
// gradient in column space back to image space. Rows are ordered
// (channel, kh, kw) and columns (oy, ox), matching the row-major layout of
// conv weights (outC, C, k, k), so no weight reshuffling is ever needed.
//
// Both directions take a block path on same-padding stride-1 geometry
// (stride 1, 2·pad = k−1: every 3×3/pad-1 and 1×1/pad-0 convolution, which is
// every stride-1 convolution the models build), where the output map is the
// input's size and row (ic, kh, kw) of the column matrix is input plane ic
// shifted by (kh−pad)·w + (kw−pad). Every other geometry goes element by
// element. Both paths write the same values and scatter-add in the same
// order, so the choice moves no bit.

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
	if len(dst) != c*k*k*oh*ow || len(src) != c*h*w {
		panic(fmt.Sprintf("tensor: Im2ColInto dst has %d elements, src %d, need %d and %d",
			len(dst), len(src), c*k*k*oh*ow, c*h*w))
	}
	Im2ColStridedInto(dst, src, c, h, w, k, stride, pad, oh*ow, 0)
}

// imageCount returns how many whole C×H×W images (chw values each) a slice of
// length n holds, panicking unless that is a positive whole number.
func imageCount(op string, n, chw int) int {
	if n == 0 || n%chw != 0 {
		panic(fmt.Sprintf("tensor: %s image data has %d elements, not a positive multiple of %d", op, n, chw))
	}
	return n / chw
}

// Im2ColStridedInto unrolls src, one or more C×H×W images back to back, into
// a (C·k·k)-row column matrix dst whose rows are ld elements apart, image i
// into columns [off + i·oh·ow, off + (i+1)·oh·ow): the batch-folded layout,
// where every image of a batch owns its own column range of one wide matrix.
// Only those columns are written, each of them fully (padding positions as
// zero).
func Im2ColStridedInto(dst, src []float64, c, h, w, k, stride, pad, ld, off int) {
	oh, ow := ConvOutDims(h, w, k, stride, pad)
	ohow, chw := oh*ow, c*h*w
	n := imageCount("Im2ColStridedInto", len(src), chw)
	checkStridedCols("Im2ColStridedInto", len(dst), c*k*k, n*ohow, ld, off)
	if stride == 1 && 2*pad == k-1 {
		im2colSame(dst, src, n, c, h, w, k, pad, ld, off)
		return
	}
	for i := 0; i < n; i++ {
		im2colRows(dst, src[i*chw:(i+1)*chw], c, h, w, k, stride, pad, ld, off+i*ohow)
	}
}

// im2colRows unrolls one image one output row at a time, element by element:
// the general path (strided convolutions, and stride 1 with other than same
// padding).
func im2colRows(dst, src []float64, c, h, w, k, stride, pad, ld, off int) {
	oh, ow := ConvOutDims(h, w, k, stride, pad)
	ohow := oh * ow
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
						clear(dseg)
						continue
					}
					xrow := plane[iy*w : (iy+1)*w]
					for ox := range dseg {
						if ix := ox*stride + kw - pad; ix >= 0 && ix < w {
							dseg[ox] = xrow[ix]
						} else {
							dseg[ox] = 0
						}
					}
				}
			}
		}
	}
}

// Col2ImAccStridedInto scatter-adds a (C·k·k)-row column matrix col whose
// rows are ld elements apart into dst, one or more C×H×W images back to back,
// image i from columns [off + i·oh·ow, off + (i+1)·oh·ow): the adjoint of
// Im2ColStridedInto. Each image receives its adds in (ic, kh, kw, oy, ox)
// order.
func Col2ImAccStridedInto(dst, col []float64, c, h, w, k, stride, pad, ld, off int) {
	oh, ow := ConvOutDims(h, w, k, stride, pad)
	ohow, chw := oh*ow, c*h*w
	n := imageCount("Col2ImAccStridedInto", len(dst), chw)
	checkStridedCols("Col2ImAccStridedInto", len(col), c*k*k, n*ohow, ld, off)
	if stride == 1 && 2*pad == k-1 {
		col2imSame(dst, col, n, c, h, w, k, pad, ld, off)
		return
	}
	for i := 0; i < n; i++ {
		col2imRows(dst[i*chw:(i+1)*chw], col, c, h, w, k, stride, pad, ld, off+i*ohow)
	}
}

// col2imRows scatters into one image one output row at a time, element by
// element: the general path.
func col2imRows(dst, col []float64, c, h, w, k, stride, pad, ld, off int) {
	oh, ow := ConvOutDims(h, w, k, stride, pad)
	ohow := oh * ow
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
					for ox, v := range crow[oy*ow : (oy+1)*ow] {
						if ix := ox*stride + kw - pad; ix >= 0 && ix < w {
							xrow[ix] += v
						}
					}
				}
			}
		}
	}
}

// sameValid returns the range [lo, hi) of output rows (or columns) of an
// n-long same-padding map whose input row oy+d lies inside [0, n).
func sameValid(n, d int) (lo, hi int) {
	lo = min(max(0, -d), n)
	return lo, max(min(n, n-d), lo)
}

// im2colSame is Im2ColStridedInto on same-padding stride-1 geometry. Row
// (ic, kh, kw) of an image's columns is one copy of the valid block of input
// plane ic, shifted by dy·w + dx (dy = kh−pad, dx = kw−pad), with the rows
// outside the plane and the |dx| edge columns of each row (which the shifted
// copy fills from the neighbouring input row) set to zero. The row loop is
// outside the image loop, so a panel of small maps pays for the geometry once.
func im2colSame(dst, src []float64, n, c, h, w, k, pad, ld, off int) {
	hw, chw := h*w, c*h*w
	r := 0
	for ic := 0; ic < c; ic++ {
		for kh := 0; kh < k; kh++ {
			dy := kh - pad
			y0, y1 := sameValid(h, dy)
			for kw := 0; kw < k; kw++ {
				dx := kw - pad
				x0, x1 := sameValid(w, dx)
				row := dst[r*ld+off : r*ld+off+n*hw]
				r++
				if x0 == x1 || y0 == y1 {
					clear(row)
					continue
				}
				// [lo, hi) spans the valid outputs; output q reads q+shift.
				lo, hi, shift := y0*w+x0, y1*w-(w-x1), dy*w+dx
				e0, ne := x1, w-x1 // the invalid columns of each row
				if dx < 0 {
					e0, ne = 0, x0
				}
				for i := 0; i < n; i++ {
					img := row[i*hw : (i+1)*hw]
					plane := src[i*chw+ic*hw : i*chw+(ic+1)*hw]
					clear(img[:lo])
					copy(img[lo:hi], plane[lo+shift:hi+shift])
					clear(img[hi:])
					if ne == 0 {
						continue
					}
					for q := y0*w + e0; q < y1*w; q += w {
						edge := img[q : q+ne]
						for j := range edge {
							edge[j] = 0
						}
					}
				}
			}
		}
	}
}

// col2imSame is Col2ImAccStridedInto on same-padding stride-1 geometry: per
// column-matrix row and image, each valid output row adds its valid run of
// columns into the input row it came from (the whole valid block at once
// when kw = pad). Every image still receives its adds in the general loop's
// (ic, kh, kw, oy, ox) order.
func col2imSame(dst, col []float64, n, c, h, w, k, pad, ld, off int) {
	hw, chw := h*w, c*h*w
	r := 0
	for ic := 0; ic < c; ic++ {
		for kh := 0; kh < k; kh++ {
			dy := kh - pad
			y0, y1 := sameValid(h, dy)
			for kw := 0; kw < k; kw++ {
				dx := kw - pad
				x0, x1 := sameValid(w, dx)
				crow := col[r*ld+off : r*ld+off+n*hw]
				r++
				if x0 == x1 || y0 == y1 {
					continue
				}
				shift := dy*w + dx
				for i := 0; i < n; i++ {
					cimg := crow[i*hw : (i+1)*hw]
					plane := dst[i*chw+ic*hw : i*chw+(ic+1)*hw]
					if dx == 0 {
						addInto(plane[y0*w+shift:y1*w+shift], cimg[y0*w:y1*w])
						continue
					}
					for q := y0 * w; q < y1*w; q += w {
						addInto(plane[q+x0+shift:q+x1+shift], cimg[q+x0:q+x1])
					}
				}
			}
		}
	}
}

// addInto adds src into dst element by element; len(src) ≥ len(dst).
func addInto(dst, src []float64) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] += v
	}
}
