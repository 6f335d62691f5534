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

// perImageConv is the GEMM lowering as it was before the batch fold, kept
// here as the reference: one im2col, one W·col, one Wᵀ·dY + col2im and one
// dY·colᵀ per image, in batch order, built only from tensor's exported
// functions applied one image at a time. The folded layer must reproduce
// every value bit for bit.
func perImageConv(c *Conv2D, x, grad *tensor.Tensor) (out, dx *tensor.Tensor, dw, db []float64) {
	bsz, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := tensor.ConvOutDims(h, w, c.Kernel, c.Stride, c.Pad)
	ickk, ohow := c.InC*c.Kernel*c.Kernel, oh*ow
	out = tensor.New(bsz, c.OutC, oh, ow)
	dx = tensor.New(bsz, c.InC, h, w)
	dw = make([]float64, c.OutC*ickk)
	db = make([]float64, c.OutC)
	col := make([]float64, ickk*ohow)
	dcol := make([]float64, ickk*ohow)
	for b := 0; b < bsz; b++ {
		tensor.Im2ColInto(col, x.Data[b*c.InC*h*w:(b+1)*c.InC*h*w], c.InC, h, w, c.Kernel, c.Stride, c.Pad)
		outB := out.Data[b*c.OutC*ohow : (b+1)*c.OutC*ohow]
		tensor.MatMulInto(outB, c.W.Data.Data, col, c.OutC, ickk, ohow)
		gb := grad.Data[b*c.OutC*ohow : (b+1)*c.OutC*ohow]
		for oc := 0; oc < c.OutC; oc++ {
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
		}
		tensor.MatMulTransAStridedInto(dcol, ohow, c.W.Data.Data, gb, ohow, c.OutC, ickk, ohow)
		tensor.Col2ImAccStridedInto(dx.Data[b*c.InC*h*w:(b+1)*c.InC*h*w], dcol, c.InC, h, w, c.Kernel, c.Stride, c.Pad, ohow, 0)
		tensor.MatMulTransBAccRowsInto(dw, gb, col, ohow, ickk, 0, c.OutC)
	}
	return out, dx, dw, db
}

type foldCase struct {
	name                      string
	inC, outC, k, stride, pad int
	bias                      bool
	h, w                      int
}

// foldCases are every convCases geometry plus 3×3 convolutions whose output
// maps are 1×1, 2×2, 4×4 (several images share one 8-column GEMM tile) and
// 16×16 (a batch spans several panels, and with these channel counts the
// layer is over the pool's floor, so at GOMAXPROCS 4 the panels really run on
// different workers), a 24×24 strided map (wider than a panel: one image
// each) and a 7×7 map (49 columns: ten images to a panel, padded to 496).
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
		foldCase{"map7x7", 3, 6, 3, 1, 1, false, 7, 7})
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
