package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"fedprophet/internal/tensor"
)

// evalRunCase is one Conv2D → BatchNorm2D → ReLU [→ MaxPool2D] atom and the
// batch it runs on.
type evalRunCase struct {
	bsz, inC, outC, h, w int
	k, stride, pad       int
	bias, pool           bool
}

func (cs evalRunCase) String() string {
	return fmt.Sprintf("b%d_%dx%dx%d_to_%d_k%ds%dp%d_bias%v_pool%v",
		cs.bsz, cs.inC, cs.h, cs.w, cs.outC, cs.k, cs.stride, cs.pad, cs.bias, cs.pool)
}

// build returns the atom with every parameter, running statistic, input and
// output gradient drawn from next, in a fixed order, so two calls with the
// same stream build identical replicas.
func (cs evalRunCase) build(next func() float64) (s *Sequential, x, g *tensor.Tensor) {
	conv := NewConv2D(cs.inC, cs.outC, cs.k, cs.stride, cs.pad, cs.bias, rand.New(rand.NewSource(1)))
	bn := NewBatchNorm2D(cs.outC)
	layers := []Layer{conv, bn, NewReLU()}
	if cs.pool {
		layers = append(layers, NewMaxPool2D(2))
	}
	s = NewSequential("atom", layers...)
	fill := func(v []float64) {
		for i := range v {
			v[i] = next()
		}
	}
	fill(conv.W.Data.Data)
	if cs.bias {
		fill(conv.B.Data.Data)
	}
	fill(bn.Gamma.Data.Data)
	fill(bn.Beta.Data.Data)
	fill(bn.RunningMean.Data)
	fill(bn.RunningVar.Data)
	x = tensor.New(cs.bsz, cs.inC, cs.h, cs.w)
	fill(x.Data)
	out := s.OutShape([]int{cs.inC, cs.h, cs.w})
	g = tensor.New(cs.bsz, out[0], out[1], out[2])
	fill(g.Data)
	return s, x, g
}

// checkEvalRunBitEqual runs fused, an atom Sequential.Forward(x, false) runs
// as one operator, against ref, an identical replica driven one layer at a
// time, and requires the output, the ReLU mask, the pool argmax, the BN
// statistics and the input gradient to agree bit for bit.
func checkEvalRunBitEqual(t *testing.T, fused, ref *Sequential, x, g *tensor.Tensor) {
	t.Helper()
	if run := leadingRun(fused.Layers, false); run.n != len(fused.Layers) {
		t.Fatalf("atom of %d layers, fused run covers %d", len(fused.Layers), run.n)
	}
	out := fused.Forward(x.Clone(), false)
	dx := fused.Backward(g.Clone())

	want := x.Clone()
	for _, l := range ref.Layers {
		want = l.Forward(want, false)
	}
	wantDX := g.Clone()
	for i := len(ref.Layers) - 1; i >= 0; i-- {
		wantDX = ref.Layers[i].Backward(wantDX)
	}

	requireBitEqual(t, "output", out.Data, want.Data)
	fr, rr := fused.Layers[2].(*ReLU), ref.Layers[2].(*ReLU)
	if fmt.Sprint(fr.mask) != fmt.Sprint(rr.mask) {
		t.Fatalf("relu mask %v, want %v", fr.mask, rr.mask)
	}
	if len(ref.Layers) == 4 {
		fp, rp := fused.Layers[3].(*MaxPool2D), ref.Layers[3].(*MaxPool2D)
		if fmt.Sprint(fp.argmax, fp.inShape) != fmt.Sprint(rp.argmax, rp.inShape) {
			t.Fatalf("pool argmax %v (in %v), want %v (in %v)", fp.argmax, fp.inShape, rp.argmax, rp.inShape)
		}
	}
	fb, rb := fused.Layers[1].(*BatchNorm2D), ref.Layers[1].(*BatchNorm2D)
	requireBitEqual(t, "bn invStd", fb.invStd, rb.invStd)
	requireBitEqual(t, "dX", dx.Data, wantDX.Data)
}

// The eval-mode Conv2D → BatchNorm2D → ReLU [→ MaxPool2D] run is the
// layer-by-layer pass, bit for bit: with and without pool and bias, at zero
// and negative γ, a running variance of −ε (invStd = +Inf), NaN in the input
// and in the gradient, −0 gradients into pool windows, 16×16 maps at batch 3
// (two panels: the folded layout splits the batch), and at GOMAXPROCS 1 and 2.
// A train-mode step after the fused pass then matches a fresh replica's: the
// fused pass leaves no state behind.
func TestEvalEpilogueBitEqualsLayers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var cases []evalRunCase
	for _, bias := range []bool{false, true} {
		for _, pool := range []bool{false, true} {
			cases = append(cases,
				evalRunCase{3, 8, 8, 16, 16, 3, 1, 1, bias, pool},
				evalRunCase{2, 3, 5, 8, 7, 3, 2, 1, bias, pool},
				evalRunCase{4, 4, 6, 2, 2, 1, 1, 0, bias, pool})
		}
	}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for ci, cs := range cases {
			t.Run(fmt.Sprintf("procs%d/%v", procs, cs), func(t *testing.T) {
				build := func() (*Sequential, *tensor.Tensor, *tensor.Tensor) {
					s, x, g := cs.build(rand.New(rand.NewSource(40 + int64(ci))).NormFloat64)
					bn := s.Layers[1].(*BatchNorm2D)
					bn.Gamma.Data.Data[0] = 0
					bn.Gamma.Data.Data[1] = -math.Abs(bn.Gamma.Data.Data[1])
					for ch := range bn.RunningVar.Data {
						bn.RunningVar.Data[ch] = math.Abs(bn.RunningVar.Data[ch])
					}
					bn.RunningVar.Data[0] = -bn.Eps
					bn.RunningVar.Data[cs.outC-1] = -bn.Eps
					x.Data[5] = math.NaN()
					for i := range g.Data {
						switch i % 7 {
						case 0:
							g.Data[i] = math.Copysign(0, -1)
						case 3:
							g.Data[i] = math.NaN()
						}
					}
					return s, x, g
				}
				fused, x, g := build()
				ref, _, _ := build()
				checkEvalRunBitEqual(t, fused, ref, x, g)

				// A train-mode step after the fused pass.
				fresh, _, _ := build()
				x2 := tensor.Randn(rand.New(rand.NewSource(90)), 1, x.Shape()...)
				g2 := tensor.Randn(rand.New(rand.NewSource(91)), 1, g.Shape()...)
				for _, s := range []*Sequential{fused, fresh} {
					ZeroGrads(s)
				}
				requireBitEqual(t, "train output after a fused pass", fused.Forward(x2, true).Data, fresh.Forward(x2, true).Data)
				requireBitEqual(t, "train dX after a fused pass", fused.Backward(g2.Clone()).Data, fresh.Backward(g2.Clone()).Data)
				fp, rp := fused.Params(), fresh.Params()
				for i := range rp {
					requireBitEqual(t, "train "+rp[i].Name+" grad after a fused pass", fp[i].Grad.Data, rp[i].Grad.Data)
				}
				fb, rb := fused.Layers[1].(*BatchNorm2D), fresh.Layers[1].(*BatchNorm2D)
				requireBitEqual(t, "running mean", fb.RunningMean.Data, rb.RunningMean.Data)
				requireBitEqual(t, "running var", fb.RunningVar.Data, rb.RunningVar.Data)
			})
		}
	}
}

// FuzzEvalEpilogueMatchesLayers holds the fused eval run bit-equal to the
// layer-by-layer pass on arbitrary channel counts, map sizes, geometries,
// bias and pool choices and values: the fuzzed bytes are read as raw float64
// bits (NaN, ±Inf, −0 and subnormals included) for weights, BN parameters and
// statistics, input and gradient, in that order, and the seed's normal draws
// fill in once they run out. Pooled geometries whose map the window does not
// tile are skipped.
func FuzzEvalEpilogueMatchesLayers(f *testing.F) {
	nan := make([]byte, 8)
	binary.LittleEndian.PutUint64(nan, math.Float64bits(math.NaN()))
	f.Add(uint8(2), uint8(3), uint8(3), uint8(3), uint8(0), false, true, []byte(nil), int64(1))
	f.Add(uint8(0), uint8(7), uint8(15), uint8(15), uint8(0), true, true, nan, int64(2))
	f.Add(uint8(3), uint8(1), uint8(7), uint8(5), uint8(2), true, false, []byte{0, 0, 0, 0, 0, 0, 0, 0x80}, int64(3))
	f.Add(uint8(1), uint8(5), uint8(0), uint8(0), uint8(1), false, false, []byte{0xff, 0xf0}, int64(4))
	f.Fuzz(func(t *testing.T, inC, outC, h, w, geom uint8, bias, pool bool, vals []byte, seed int64) {
		g := [3][3]int{{3, 1, 1}, {1, 1, 0}, {3, 2, 1}}[geom%3]
		cs := evalRunCase{1 + int(uint64(seed)%3), 1 + int(inC%4), 1 + int(outC%8),
			1 + int(h%16), 1 + int(w%16), g[0], g[1], g[2], bias, pool}
		oh, ow := tensor.ConvOutDims(cs.h, cs.w, cs.k, cs.stride, cs.pad)
		if pool && (oh%2 != 0 || ow%2 != 0) {
			t.Skip("the pool window does not tile the map")
		}
		stream := func() func() float64 {
			rng, b := rand.New(rand.NewSource(seed)), vals
			return func() float64 {
				if len(b) >= 8 {
					v := math.Float64frombits(binary.LittleEndian.Uint64(b))
					b = b[8:]
					return v
				}
				return rng.NormFloat64()
			}
		}
		fused, x, gr := cs.build(stream())
		ref, _, _ := cs.build(stream())
		checkEvalRunBitEqual(t, fused, ref, x, gr)
	})
}
