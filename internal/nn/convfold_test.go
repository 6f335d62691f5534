package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"fedprophet/internal/tensor"
)

// perImageConv is the reference the folded layer must reproduce bit for
// bit: the convolution written from its definition, one image at a time in
// batch order. It unrolls with naiveUnroll, forms W·col, Wᵀ·dY and dY·colᵀ
// with plain loops — each sum from +0 in ascending order of its index, the dW
// sum per image then added to dW — and scatters with naiveScatter. It calls no
// tensor kernel, so it cannot inherit a fault from the ones it checks.
func perImageConv(c *Conv2D, x, grad *tensor.Tensor) (out, dx *tensor.Tensor, dw, db []float64) {
	bsz, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := tensor.ConvOutDims(h, w, c.Kernel, c.Stride, c.Pad)
	ickk, ohow := c.InC*c.Kernel*c.Kernel, oh*ow
	out = tensor.New(bsz, c.OutC, oh, ow)
	dx = tensor.New(bsz, c.InC, h, w)
	dw = make([]float64, c.OutC*ickk)
	db = make([]float64, c.OutC)
	wd := c.W.Data.Data
	dcol := make([]float64, ickk*ohow)
	for b := 0; b < bsz; b++ {
		col := naiveUnroll(x.Data[b*c.InC*h*w:(b+1)*c.InC*h*w], c.InC, h, w, c.Kernel, c.Stride, c.Pad)
		outB := out.Data[b*c.OutC*ohow : (b+1)*c.OutC*ohow]
		gb := grad.Data[b*c.OutC*ohow : (b+1)*c.OutC*ohow]
		for oc := 0; oc < c.OutC; oc++ {
			for p := 0; p < ohow; p++ {
				s := 0.0
				for r := 0; r < ickk; r++ {
					s += wd[oc*ickk+r] * col[r*ohow+p]
				}
				outB[oc*ohow+p] = s
			}
			if c.hasBias {
				if bias := c.B.Data.Data[oc]; bias != 0 {
					for i := oc * ohow; i < (oc+1)*ohow; i++ {
						outB[i] += bias
					}
				}
			}
			s := 0.0
			for _, v := range gb[oc*ohow : (oc+1)*ohow] {
				s += v
			}
			db[oc] += s
			for r := 0; r < ickk; r++ {
				s := 0.0
				for p := 0; p < ohow; p++ {
					s += gb[oc*ohow+p] * col[r*ohow+p]
				}
				dw[oc*ickk+r] += s
			}
		}
		for r := 0; r < ickk; r++ {
			for p := 0; p < ohow; p++ {
				s := 0.0
				for oc := 0; oc < c.OutC; oc++ {
					s += wd[oc*ickk+r] * gb[oc*ohow+p]
				}
				dcol[r*ohow+p] = s
			}
		}
		naiveScatter(dx.Data[b*c.InC*h*w:(b+1)*c.InC*h*w], dcol, c.InC, h, w, c.Kernel, c.Stride, c.Pad)
	}
	return out, dx, dw, db
}

// naiveUnroll is im2col from its definition: row (ic, kh, kw), column
// (oy, ox) holds x[ic][oy·stride+kh−pad][ox·stride+kw−pad], or +0 outside.
func naiveUnroll(x []float64, c, h, w, k, stride, pad int) []float64 {
	oh, ow := tensor.ConvOutDims(h, w, k, stride, pad)
	col := make([]float64, c*k*k*oh*ow)
	for r := range c * k * k {
		ic, kh, kw := r/(k*k), r/k%k, r%k
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				if iy, ix := oy*stride+kh-pad, ox*stride+kw-pad; iy >= 0 && iy < h && ix >= 0 && ix < w {
					col[(r*oh+oy)*ow+ox] = x[(ic*h+iy)*w+ix]
				}
			}
		}
	}
	return col
}

// naiveScatter is col2im from its definition: every column-matrix value is
// added to the input element it was read from, in (ic, kh, kw, oy, ox) order.
func naiveScatter(img, col []float64, c, h, w, k, stride, pad int) {
	oh, ow := tensor.ConvOutDims(h, w, k, stride, pad)
	for r := range c * k * k {
		ic, kh, kw := r/(k*k), r/k%k, r%k
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				if iy, ix := oy*stride+kh-pad, ox*stride+kw-pad; iy >= 0 && iy < h && ix >= 0 && ix < w {
					img[(ic*h+iy)*w+ix] += col[(r*oh+oy)*ow+ox]
				}
			}
		}
	}
}

type foldCase struct {
	name                      string
	inC, outC, k, stride, pad int
	bias                      bool
	h, w                      int
}

// foldCases are every convCases geometry plus 3×3 convolutions whose output
// maps are 1×1, 2×2 (VGG16-S conv8–13), 4×4 (several images share one
// 8-column GEMM tile) and 16×16 (a batch spans several panels, and with these
// channel counts the layer is over the pool's floor, so at GOMAXPROCS 4 the
// panels really run on different workers), a 24×24 strided map (wider than a
// panel: one image each), a 7×7 map (49 columns: ten images to a panel,
// padded to 496), 5×5 kernels with same and wider padding, a padded 1×1
// kernel, and a 5×5 stride-2 kernel.
func foldCases() []foldCase {
	var cases []foldCase
	for _, cs := range convCases {
		cases = append(cases, foldCase{cs.name, cs.inC, cs.outC, cs.k, cs.stride, cs.pad, cs.bias, cs.h, cs.w})
	}
	for _, hw := range []int{1, 2, 4, 16} {
		cases = append(cases,
			foldCase{fmt.Sprintf("map%dx%d", hw, hw), 5, 8, 3, 1, 1, false, hw, hw},
			foldCase{fmt.Sprintf("map%dx%dBias", hw, hw), 3, 5, 3, 1, 1, true, hw, hw})
	}
	return append(cases,
		foldCase{"stridedMap24x24", 2, 4, 3, 2, 1, true, 48, 48},
		foldCase{"map7x7", 3, 6, 3, 1, 1, false, 7, 7},
		foldCase{"k5same", 2, 9, 5, 1, 2, false, 6, 5},
		foldCase{"k5same2x2", 3, 4, 5, 1, 2, true, 2, 2},
		foldCase{"k5widePad", 2, 3, 5, 1, 3, false, 4, 4},
		foldCase{"k3widePad1x1", 2, 3, 3, 1, 2, false, 1, 1},
		foldCase{"k1padded", 3, 4, 1, 1, 1, true, 3, 3},
		foldCase{"k5stride2", 2, 5, 5, 2, 2, false, 9, 9})
}

func TestFoldedConvBitEqualsPerImage(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	bitEq := func(t *testing.T, what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v (folded) vs %v (per image)", what, i, got[i], want[i])
			}
		}
	}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for ci, cs := range foldCases() {
			batches := []int{1, 2, 3, 5, 8}
			if cs.name == "map7x7" {
				batches = append(batches, 25) // 10 + 10 + 5 images: three panels
			}
			for _, bsz := range batches {
				t.Run(fmt.Sprintf("procs%d/%s/batch%d", procs, cs.name, bsz), func(t *testing.T) {
					rng := rand.New(rand.NewSource(900 + int64(ci)))
					c := NewConv2D(cs.inC, cs.outC, cs.k, cs.stride, cs.pad, cs.bias, rng)
					if cs.bias {
						for i := range c.B.Data.Data {
							c.B.Data.Data[i] = rng.NormFloat64()
						}
						c.B.Data.Data[0] = 0 // a zero bias is skipped, not added
					}
					x := tensor.Randn(rng, 1, bsz, cs.inC, cs.h, cs.w)
					out := c.Forward(x, true)
					grad := tensor.Randn(rng, 1, out.Shape()...)
					wantOut, wantDX, wantDW, wantDB := perImageConv(c, x, grad)

					ZeroGrads(c)
					dx := c.Backward(grad)
					bitEq(t, "forward", out.Data, wantOut.Data)
					bitEq(t, "dX", dx.Data, wantDX.Data)
					bitEq(t, "dW", c.W.Grad.Data, wantDW)
					if cs.bias {
						bitEq(t, "dB", c.B.Grad.Data, wantDB)
					}

					// An eval-mode pass returns the same activations and dX
					// and leaves the parameter gradients alone.
					bitEq(t, "eval forward", c.Forward(x, false).Data, wantOut.Data)
					bitEq(t, "eval dX", c.Backward(grad).Data, wantDX.Data)
					bitEq(t, "dW after eval backward", c.W.Grad.Data, wantDW)
				})
			}
		}
	}
}

// The transient panel scratch is bounded by foldPanel whatever the batch
// size: what a pass leaves in the arena does not grow when the batch does.
func TestFoldScratchBoundedByPanel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := NewConv2D(3, 4, 3, 1, 1, false, rng)
	rows := c.OutC + c.InC*9
	for _, bsz := range []int{8, 32, 128} {
		var panels atomic.Int32 // panels of the larger batches run on several workers
		c.forEachPanel(newFoldLayout(bsz, 16*16), bsz, rows, func(b0, b1, pw int, scratch []float64) {
			panels.Add(1)
			if pw > foldPanel || len(scratch) != rows*foldPanel {
				t.Errorf("batch %d: panel of %d columns with %d scratch values", bsz, pw, len(scratch))
			}
		})
		if want := int32(bsz * 256 / foldPanel); panels.Load() != want {
			t.Fatalf("batch %d: %d panels, want %d", bsz, panels.Load(), want)
		}
	}
}
