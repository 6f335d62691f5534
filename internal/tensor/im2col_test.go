package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// naiveIm2Col is an index-arithmetic-free reference: walk every output
// position and kernel tap, reading through At with explicit bounds checks.
func naiveIm2Col(x *Tensor, k, stride, pad int) *Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	oh, ow := ConvOutDims(h, w, k, stride, pad)
	col := New(c*k*k, oh*ow)
	for ic := 0; ic < c; ic++ {
		for kh := 0; kh < k; kh++ {
			for kw := 0; kw < k; kw++ {
				r := (ic*k+kh)*k + kw
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*stride+kh-pad, ox*stride+kw-pad
						v := 0.0
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							v = x.At(ic, iy, ix)
						}
						col.Set(v, r, oy*ow+ox)
					}
				}
			}
		}
	}
	return col
}

// naiveCol2Im scatter-adds col, a (C·k·k) × (oh·ow) matrix, into img one
// element at a time in (ic, kh, kw, oy, ox) order — the order every col2im
// path must keep, since it fixes how each input gradient rounds.
func naiveCol2Im(img, col *Tensor, k, stride, pad int) {
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	oh, ow := ConvOutDims(h, w, k, stride, pad)
	for ic := 0; ic < c; ic++ {
		for kh := 0; kh < k; kh++ {
			for kw := 0; kw < k; kw++ {
				r := (ic*k+kh)*k + kw
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*stride+kh-pad, ox*stride+kw-pad
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							img.Set(img.At(ic, iy, ix)+col.At(r, oy*ow+ox), ic, iy, ix)
						}
					}
				}
			}
		}
	}
}

// convCases covers both unroll paths: same-padding stride 1 (the block path;
// k ∈ {1, 3, 5}, maps down to 1×1 and 2×2 as in VGG16-S's last blocks) and
// everything else (padding wider or narrower than same, stride 2 and 4).
var convCases = []struct{ c, h, w, k, stride, pad int }{
	{3, 1, 1, 3, 1, 1},
	{2, 2, 2, 3, 1, 1},
	{2, 6, 5, 5, 1, 2},
	{1, 1, 1, 5, 1, 2},
	{2, 4, 4, 1, 1, 1},
	{1, 5, 5, 3, 1, 2},
	{2, 7, 7, 5, 2, 2},
	{1, 4, 4, 3, 1, 1},
	{2, 5, 7, 3, 1, 1},
	{3, 6, 6, 3, 2, 1},
	{2, 5, 5, 1, 1, 0},
	{2, 8, 8, 1, 2, 0},
	{1, 4, 4, 4, 4, 0},
	{2, 7, 5, 3, 2, 2},
	{1, 3, 3, 3, 1, 0},
	// Kernel exceeding the unpadded input: the stride-1 fast path must clamp
	// its copy bounds rather than index out of range.
	{1, 2, 2, 6, 1, 2},
	{2, 3, 2, 5, 1, 2},
}

func TestIm2ColMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, cs := range convCases {
		x := Randn(rng, 1, cs.c, cs.h, cs.w)
		got := Im2Col(x, cs.k, cs.stride, cs.pad)
		want := naiveIm2Col(x, cs.k, cs.stride, cs.pad)
		if !got.SameShape(want) {
			t.Fatalf("%+v: shape %v, want %v", cs, got.Shape(), want.Shape())
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%+v: col[%d] = %v, want %v", cs, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// Col2Im is the adjoint of Im2Col: ⟨Im2Col(x), c⟩ == ⟨x, Col2Im(c)⟩ for all
// x and c. This single identity pins every index mapping and the scatter-add
// semantics at once — it is exactly the property conv backward relies on.
func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, cs := range convCases {
		x := Randn(rng, 1, cs.c, cs.h, cs.w)
		col := Im2Col(x, cs.k, cs.stride, cs.pad)
		cotangent := Randn(rng, 1, col.Shape()...)
		back := Col2Im(cotangent, cs.c, cs.h, cs.w, cs.k, cs.stride, cs.pad)
		lhs := Dot(col, cotangent)
		rhs := Dot(x, back)
		if diff := lhs - rhs; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%+v: adjoint identity violated: %v vs %v", cs, lhs, rhs)
		}
	}
}

func TestCol2ImCountsOverlaps(t *testing.T) {
	// All-ones cotangent: Col2Im must count, per input pixel, how many
	// receptive fields cover it. For a 3×3 kernel, stride 1, pad 1 on 3×3,
	// the center is covered by all 9 output positions' windows.
	col := New(9, 9)
	col.Fill(1)
	img := Col2Im(col, 1, 3, 3, 3, 1, 1)
	if got := img.At(0, 1, 1); got != 9 {
		t.Fatalf("center coverage = %v, want 9", got)
	}
	if got := img.At(0, 0, 0); got != 4 {
		t.Fatalf("corner coverage = %v, want 4", got)
	}
}

func TestConvOutDimsPanicsOnImpossibleGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for kernel larger than padded input")
		}
	}()
	ConvOutDims(2, 2, 5, 1, 0)
}

// The strided forms place one image's columns inside a wider folded matrix.
// For every geometry they must write (or read) exactly the columns the
// per-image forms do, at the given offset, and leave the rest of the matrix
// alone.
func TestStridedIm2ColMatchesPerImage(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const sentinel = -777.25
	for _, cs := range convCases {
		oh, ow := ConvOutDims(cs.h, cs.w, cs.k, cs.stride, cs.pad)
		ohow, rows := oh*ow, cs.c*cs.k*cs.k
		for _, lay := range []struct{ ld, off int }{{ohow, 0}, {3*ohow + 5, ohow + 3}, {ohow + 1, 1}} {
			x := Randn(rng, 1, cs.c, cs.h, cs.w)
			want := Im2Col(x, cs.k, cs.stride, cs.pad)
			wide := make([]float64, rows*lay.ld)
			for i := range wide {
				wide[i] = sentinel
			}
			Im2ColStridedInto(wide, x.Data, cs.c, cs.h, cs.w, cs.k, cs.stride, cs.pad, lay.ld, lay.off)
			for r := 0; r < rows; r++ {
				for j := 0; j < lay.ld; j++ {
					got, exp := wide[r*lay.ld+j], sentinel
					if j >= lay.off && j < lay.off+ohow {
						exp = want.Data[r*ohow+j-lay.off]
					}
					if got != exp {
						t.Fatalf("%+v %+v: strided col[%d,%d] = %v, want %v", cs, lay, r, j, got, exp)
					}
				}
			}

			cot := Randn(rng, 1, rows, ohow)
			wantImg := Col2Im(cot, cs.c, cs.h, cs.w, cs.k, cs.stride, cs.pad)
			for r := 0; r < rows; r++ {
				copy(wide[r*lay.ld+lay.off:], cot.Data[r*ohow:(r+1)*ohow])
			}
			gotImg := New(cs.c, cs.h, cs.w)
			Col2ImAccStridedInto(gotImg.Data, wide, cs.c, cs.h, cs.w, cs.k, cs.stride, cs.pad, lay.ld, lay.off)
			for i := range wantImg.Data {
				if gotImg.Data[i] != wantImg.Data[i] {
					t.Fatalf("%+v %+v: strided col2im[%d] = %v, want %v", cs, lay, i, gotImg.Data[i], wantImg.Data[i])
				}
			}
		}
	}
}

func TestStridedIm2ColPanicsOutsideMatrix(t *testing.T) {
	for name, call := range map[string]func(){
		"columns past the row stride": func() {
			Im2ColStridedInto(make([]float64, 9*20), make([]float64, 16), 1, 4, 4, 3, 1, 1, 20, 5)
		},
		"matrix one element short": func() {
			Col2ImAccStridedInto(make([]float64, 16), make([]float64, 8*20+4+16-1), 1, 4, 4, 3, 1, 1, 20, 4)
		},
		"second image past the row stride": func() {
			Im2ColStridedInto(make([]float64, 9*40), make([]float64, 32), 1, 4, 4, 3, 1, 1, 40, 9)
		},
		"part of an image": func() {
			Col2ImAccStridedInto(make([]float64, 24), make([]float64, 9*40), 1, 4, 4, 3, 1, 1, 40, 0)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected a panic", name)
				}
			}()
			call()
		}()
	}
}

// checkConvKernels holds the four kernels of a convolution layer to their
// naive references bit for bit, on the assembly tile and on its portable twin,
// for one geometry and a panel of nimg images: the unroll into the images'
// columns of a wider matrix, the scatter back, the forward product W·col and
// the per-image dW accumulation dWᵀ += col_i·dY_iᵀ.
func checkConvKernels(t *testing.T, nimg, c, h, w, k, stride, pad int, seed int64) {
	t.Helper()
	oh, ow := ConvOutDims(h, w, k, stride, pad)
	rows, ohow, chw := c*k*k, oh*ow, c*h*w
	const outC, n, sentinel = 5, 8, -777.25
	rng := rand.New(rand.NewSource(seed))
	off := rng.Intn(4)
	ld := off + nimg*ohow + rng.Intn(9)
	x, img0 := New(nimg, c, h, w), New(nimg, c, h, w)
	cot, wt := New(rows, nimg*ohow), make([]float64, outC*rows)
	dyT, dwT0 := make([]float64, nimg*ohow*n), make([]float64, rows*n)
	for _, s := range [][]float64{x.Data, img0.Data, cot.Data, wt, dyT, dwT0} {
		gemmTestValues(rng, s)
	}

	wantWide := make([]float64, rows*ld)
	for i := range wantWide {
		wantWide[i] = sentinel
	}
	wantImg := img0.Clone()
	wantOut := make([]float64, nimg*outC*ohow)
	wantDW := append([]float64(nil), dwT0...)
	for i := 0; i < nimg; i++ {
		xi := FromSlice(x.Data[i*chw:(i+1)*chw], c, h, w)
		col := naiveIm2Col(xi, k, stride, pad)
		for r := 0; r < rows; r++ {
			copy(wantWide[r*ld+off+i*ohow:], col.Data[r*ohow:(r+1)*ohow])
		}
		ci := New(rows, ohow)
		for r := 0; r < rows; r++ {
			copy(ci.Data[r*ohow:], cot.Data[r*nimg*ohow+i*ohow:r*nimg*ohow+(i+1)*ohow])
		}
		naiveCol2Im(FromSlice(wantImg.Data[i*chw:(i+1)*chw], c, h, w), ci, k, stride, pad)
		for o := 0; o < outC; o++ {
			for j := 0; j < ohow; j++ {
				s := 0.0
				for r := 0; r < rows; r++ {
					s += wt[o*rows+r] * col.Data[r*ohow+j]
				}
				wantOut[o*nimg*ohow+i*ohow+j] = s
			}
		}
		for r := 0; r < rows; r++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for p := 0; p < ohow; p++ {
					s += col.Data[r*ohow+p] * dyT[(i*ohow+p)*n+j]
				}
				wantDW[r*n+j] += s
			}
		}
	}

	bitEq := func(what string, portable bool, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%d images c%d h%d w%d k%d stride%d pad%d portable=%v: %s[%d] = %v, want %v",
					nimg, c, h, w, k, stride, pad, portable, what, i, got[i], want[i])
			}
		}
	}
	run := func(portable bool) {
		wide := make([]float64, rows*ld)
		for i := range wide {
			wide[i] = sentinel
		}
		Im2ColStridedInto(wide, x.Data, c, h, w, k, stride, pad, ld, off)
		bitEq("unroll", portable, wide, wantWide)
		out := make([]float64, outC*nimg*ohow)
		MatMulStridedInto(out, nimg*ohow, wt, wide[off:], ld, outC, rows, nimg*ohow)
		bitEq("forward", portable, out, wantOut)
		dwT := append([]float64(nil), dwT0...)
		for i := 0; i < nimg; i++ {
			MatMulAccRowsInto(dwT, n, wide[off+i*ohow:], ld, dyT[i*ohow*n:], n, ohow, n, 0, rows)
		}
		bitEq("dW", portable, dwT, wantDW)

		for r := 0; r < rows; r++ {
			copy(wide[r*ld+off:], cot.Data[r*nimg*ohow:(r+1)*nimg*ohow])
		}
		img := img0.Clone()
		Col2ImAccStridedInto(img.Data, wide, c, h, w, k, stride, pad, ld, off)
		bitEq("scatter", portable, img.Data, wantImg.Data)
	}
	run(!useAVX2)
	if useAVX2 {
		forcePortable(func() { run(true) })
	}
}

func TestConvKernelsMatchNaive(t *testing.T) {
	for i, cs := range convCases {
		for nimg := 1; nimg <= 3; nimg++ {
			checkConvKernels(t, nimg, cs.c, cs.h, cs.w, cs.k, cs.stride, cs.pad, int64(i))
		}
	}
}

// FuzzConvKernelsMatchNaive runs checkConvKernels on arbitrary small
// geometries and panels of one to three images (the seed picks how many);
// geometries with no output (kernel wider than the padded input) are skipped.
func FuzzConvKernelsMatchNaive(f *testing.F) {
	for i, cs := range convCases {
		f.Add(uint8(cs.c), uint8(cs.h), uint8(cs.w), uint8(cs.k), uint8(cs.stride), uint8(cs.pad), int64(i))
	}
	f.Fuzz(func(t *testing.T, c, h, w, k, stride, pad uint8, seed int64) {
		ci, hi, wi := 1+int(c%4), 1+int(h%12), 1+int(w%12)
		ki, si, pi := 1+int(k%6), 1+int(stride%3), int(pad%4)
		if hi+2*pi < ki || wi+2*pi < ki {
			t.Skip("no output")
		}
		checkConvKernels(t, 1+int(uint64(seed)%3), ci, hi, wi, ki, si, pi, seed)
	})
}
