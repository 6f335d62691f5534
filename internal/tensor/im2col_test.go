package tensor

import (
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

var convCases = []struct{ c, h, w, k, stride, pad int }{
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
