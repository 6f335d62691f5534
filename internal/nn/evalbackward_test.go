package nn

import (
	"math"
	"math/rand"
	"testing"

	"fedprophet/internal/tensor"
)

func requireBitEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// checkEvalBackwardContract pins the gradient-demand contract of Layer on two
// identically built replicas:
//
//   - ref runs the train-mode pass the parent behaviour is defined by;
//   - l runs Forward(x, false) + Backward over sentinel-filled gradients, which
//     must leave every Param.Grad bit-untouched and — for layers whose forward
//     does not depend on the mode (modeFree) — return the train-mode dX bit for
//     bit;
//   - a train-mode pass on l afterwards must accumulate exactly ref's
//     gradients: the eval pass left no state behind.
//
// It returns the eval-mode dX and the output gradient that produced it, for
// layer-specific checks.
func checkEvalBackwardContract(t *testing.T, build func() Layer, x *tensor.Tensor, modeFree bool) (dxEval, g *tensor.Tensor) {
	t.Helper()
	ref, l := build(), build()

	out := ref.Forward(x, true)
	g = tensor.Randn(rand.New(rand.NewSource(77)), 1, out.Shape()...)
	ZeroGrads(ref)
	dxTrain := ref.Backward(g.Clone())

	fillGrads(l, gradSentinel)
	l.Forward(x, false)
	dxEval = l.Backward(g.Clone())
	requireGradsUntouched(t, l)
	if modeFree {
		requireBitEqual(t, "eval dX vs train dX", dxEval.Data, dxTrain.Data)
	}

	ZeroGrads(l)
	l.Forward(x, true)
	dxAgain := l.Backward(g.Clone())
	requireBitEqual(t, "train dX after an eval pass", dxAgain.Data, dxTrain.Data)
	lp, rp := l.Params(), ref.Params()
	for i := range rp {
		requireBitEqual(t, "train "+rp[i].Name+" grad after an eval pass", lp[i].Grad.Data, rp[i].Grad.Data)
	}
	return dxEval, g
}

func TestConvEvalBackwardInputGradOnly(t *testing.T) {
	for i, cs := range convCases {
		for _, impl := range []struct {
			name string
			wrap func(*Conv2D) Layer
		}{
			{"gemm", func(c *Conv2D) Layer { return c }},
			{"direct", func(c *Conv2D) Layer { return &directConv{Conv2D: c} }},
		} {
			t.Run(cs.name+"/"+impl.name, func(t *testing.T) {
				build := func() Layer {
					c := NewConv2D(cs.inC, cs.outC, cs.k, cs.stride, cs.pad, cs.bias, rand.New(rand.NewSource(600+int64(i))))
					if cs.bias {
						c.B.Data.Fill(0.25)
					}
					return impl.wrap(c)
				}
				x := tensor.Randn(rand.New(rand.NewSource(700+int64(i))), 1, cs.bsz, cs.inC, cs.h, cs.w)
				checkEvalBackwardContract(t, build, x, true)
			})
		}
	}
}

func TestLinearEvalBackwardInputGradOnly(t *testing.T) {
	build := func() Layer { return NewLinear(6, 4, rand.New(rand.NewSource(1))) }
	x := tensor.Randn(rand.New(rand.NewSource(2)), 1, 3, 6)
	checkEvalBackwardContract(t, build, x, true)
}

// Eval-mode batch norm treats its statistics as constants: dX must be exactly
// γ·invStd·grad, with no dγ/dβ.
func TestBatchNormEvalBackwardInputGradOnly(t *testing.T) {
	build := func() Layer {
		rng := rand.New(rand.NewSource(5))
		bn := NewBatchNorm2D(3)
		for ch := range bn.Gamma.Data.Data {
			bn.Gamma.Data.Data[ch] = 0.5 + rng.Float64()
			bn.Beta.Data.Data[ch] = rng.NormFloat64()
		}
		bn.Forward(tensor.Randn(rng, 1, 8, 3, 4, 4), true) // populate running stats
		return bn
	}
	x := tensor.Randn(rand.New(rand.NewSource(6)), 1, 2, 3, 4, 4)
	dx, g := checkEvalBackwardContract(t, build, x, false)

	bn := build().(*BatchNorm2D)
	want := make([]float64, len(g.Data))
	for i := range want {
		ch := (i / 16) % 3
		scale := bn.Gamma.Data.Data[ch] * (1.0 / math.Sqrt(bn.RunningVar.Data[ch]+bn.Eps))
		want[i] = scale * g.Data[i]
	}
	requireBitEqual(t, "eval dX vs γ·invStd·grad", dx.Data, want)
}

func TestBasicBlockEvalBackwardInputGradOnly(t *testing.T) {
	for _, cs := range []struct {
		name              string
		inC, outC, stride int
	}{{"projection", 2, 4, 2}, {"identity", 3, 3, 1}} {
		t.Run(cs.name, func(t *testing.T) {
			build := func() Layer {
				rng := rand.New(rand.NewSource(10))
				b := NewBasicBlock(cs.inC, cs.outC, cs.stride, rng)
				b.Forward(tensor.Randn(rng, 1, 4, cs.inC, 6, 6), true) // populate running stats
				return b
			}
			x := tensor.Randn(rand.New(rand.NewSource(11)), 1, 2, cs.inC, 6, 6)
			checkEvalBackwardContract(t, build, x, false)
			// The eval-mode input gradient is still the true derivative.
			checkLayerGrads(t, build(), x, false, 1e-4)
		})
	}
}

// Whole models inherit the contract through Sequential, BasicBlock and Model:
// an attack's eval-mode pass through VGG16-S or ResNet34-S writes no
// parameter gradient anywhere in the tree.
func TestModelEvalBackwardInputGradOnly(t *testing.T) {
	for _, cs := range []struct {
		name  string
		in    []int
		build func(in []int, rng *rand.Rand) *Model
	}{
		{"VGG16S", []int{3, 16, 16}, func(in []int, rng *rand.Rand) *Model { return VGG16S(in, 10, 2, rng) }},
		{"ResNet34S", []int{3, 24, 24}, func(in []int, rng *rand.Rand) *Model { return ResNet34S(in, 32, 2, rng) }},
	} {
		t.Run(cs.name, func(t *testing.T) {
			in := cs.in
			build := func() Layer {
				rng := rand.New(rand.NewSource(20))
				m := cs.build(in, rng)
				m.Forward(tensor.Randn(rng, 1, 4, in[0], in[1], in[2]), true) // populate running stats
				return m
			}
			x := tensor.Randn(rand.New(rand.NewSource(21)), 1, 2, in[0], in[1], in[2])
			checkEvalBackwardContract(t, build, x, false)
		})
	}
}
