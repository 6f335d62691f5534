package nn

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"fedprophet/internal/tensor"
)

// convCase enumerates the geometries the GEMM lowering must reproduce:
// padded, strided, biased, 1×1, non-square inputs, pad exceeding 1.
var convCases = []struct {
	name                      string
	inC, outC, k, stride, pad int
	bias                      bool
	bsz, h, w                 int
}{
	{"padded3x3", 2, 3, 3, 1, 1, false, 2, 5, 5},
	{"padded3x3bias", 2, 3, 3, 1, 1, true, 2, 5, 5},
	{"strided", 2, 4, 3, 2, 1, false, 2, 6, 6},
	{"stridedBias", 3, 2, 3, 2, 1, true, 1, 7, 7},
	{"oneByOne", 3, 2, 1, 2, 0, false, 2, 4, 4},
	{"nonSquare", 2, 2, 3, 1, 1, true, 2, 4, 6},
	{"widePad", 1, 2, 3, 2, 2, false, 2, 5, 5},
	{"kernelExceedsInput", 1, 2, 6, 1, 2, false, 1, 2, 2},
}

// newConvPair builds two identically initialised convolutions: the layer
// itself and the direct-loop reference (convref_test.go).
func newConvPair(t *testing.T, seed int64, inC, outC, k, stride, pad int, bias bool) (direct *directConv, gemm *Conv2D) {
	t.Helper()
	direct = &directConv{Conv2D: NewConv2D(inC, outC, k, stride, pad, bias, rand.New(rand.NewSource(seed)))}
	gemm = NewConv2D(inC, outC, k, stride, pad, bias, rand.New(rand.NewSource(seed)))
	return direct, gemm
}

// The GEMM convolution must pass the same finite-difference gradient checks
// as the direct loops, on every geometry.
func TestConvGEMMGradients(t *testing.T) {
	for i, cs := range convCases {
		t.Run(cs.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(100 + int64(i)))
			c := NewConv2D(cs.inC, cs.outC, cs.k, cs.stride, cs.pad, cs.bias, rng)
			x := tensor.Randn(rng, 1, cs.bsz, cs.inC, cs.h, cs.w)
			checkLayerGrads(t, c, x, true, 1e-6)
		})
	}
}

// Forward activations must be BIT-identical to the reference: the GEMM
// kernels accumulate each output element over (ic, kh, kw) in exactly the
// direct loops' order, and padding contributes exact-zero terms.
func TestConvBackendsForwardBitIdentical(t *testing.T) {
	for i, cs := range convCases {
		direct, gemm := newConvPair(t, 200+int64(i), cs.inC, cs.outC, cs.k, cs.stride, cs.pad, cs.bias)
		x := tensor.Randn(rand.New(rand.NewSource(300+int64(i))), 1, cs.bsz, cs.inC, cs.h, cs.w)
		outD := direct.Forward(x, true)
		outG := gemm.Forward(x, true)
		if !outD.SameShape(outG) {
			t.Fatalf("%s: shapes diverge %v vs %v", cs.name, outD.Shape(), outG.Shape())
		}
		for j := range outD.Data {
			if outD.Data[j] != outG.Data[j] {
				t.Fatalf("%s: forward[%d] = %v (direct) vs %v (gemm)",
					cs.name, j, outD.Data[j], outG.Data[j])
			}
		}
	}
}

// Weight and bias gradients accumulate in the same order in the layer and the
// reference and must be bit-identical; the input gradient groups its sum differently (the
// GEMM path reduces over output channels first) and must agree to ≤1e-9
// relative error — the tolerance the gradcheck contract allows.
func TestConvBackendsBackwardEquivalent(t *testing.T) {
	for i, cs := range convCases {
		direct, gemm := newConvPair(t, 400+int64(i), cs.inC, cs.outC, cs.k, cs.stride, cs.pad, cs.bias)
		rng := rand.New(rand.NewSource(500 + int64(i)))
		x := tensor.Randn(rng, 1, cs.bsz, cs.inC, cs.h, cs.w)

		outD := direct.Forward(x, true)
		grad := tensor.Randn(rng, 1, outD.Shape()...)
		gemm.Forward(x, true)

		ZeroGrads(direct)
		ZeroGrads(gemm)
		dxD := direct.Backward(grad.Clone())
		dxG := gemm.Backward(grad.Clone())

		for j := range direct.W.Grad.Data {
			if direct.W.Grad.Data[j] != gemm.W.Grad.Data[j] {
				t.Fatalf("%s: dW[%d] = %v (direct) vs %v (gemm)",
					cs.name, j, direct.W.Grad.Data[j], gemm.W.Grad.Data[j])
			}
		}
		if cs.bias {
			for j := range direct.B.Grad.Data {
				if direct.B.Grad.Data[j] != gemm.B.Grad.Data[j] {
					t.Fatalf("%s: dB[%d] diverges", cs.name, j)
				}
			}
		}
		for j := range dxD.Data {
			d, g := dxD.Data[j], dxG.Data[j]
			if math.Abs(d-g) > 1e-9*(1+math.Abs(d)) {
				t.Fatalf("%s: dX[%d] = %v (direct) vs %v (gemm)", cs.name, j, d, g)
			}
		}
	}
}

// The layer-cached col buffer must survive batch-size changes (PGD eval and
// train batches differ) and release cleanly to the arena.
func TestConvGEMMScratchLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewConv2D(2, 3, 3, 1, 1, false, rng)
	for _, bsz := range []int{4, 1, 8, 2} {
		x := tensor.Randn(rng, 1, bsz, 2, 6, 6)
		out := c.Forward(x, true)
		ZeroGrads(c)
		dx := c.Backward(tensor.Randn(rng, 1, out.Shape()...))
		if !dx.SameShape(x) {
			t.Fatalf("bsz %d: dx shape %v, want %v", bsz, dx.Shape(), x.Shape())
		}
	}
	c.ReleaseScratch()
	if c.col != nil {
		t.Fatal("ReleaseScratch must drop the cached col buffer")
	}
	// Reacquire transparently.
	x := tensor.Randn(rng, 1, 2, 2, 6, 6)
	c.Forward(x, true)
	if c.col == nil {
		t.Fatal("Forward after ReleaseScratch must rebuild the col buffer")
	}
}

// ReleaseScratch must reach convolutions nested in every container type.
func TestReleaseScratchWalksTree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := ResNet10S([]int{3, 16, 16}, 10, 4, rng)
	convs := CollectConvs(m)
	if len(convs) < 9 { // conv1 + 4 stages × (2 convs) ≥ 9, plus projections
		t.Fatalf("CollectConvs found %d convs in ResNet10-S", len(convs))
	}
	x := tensor.Randn(rng, 1, 2, 3, 16, 16)
	m.Forward(x, true)
	busy := 0
	for _, c := range convs {
		if c.col != nil {
			busy++
		}
	}
	if busy == 0 {
		t.Fatal("forward pass must populate col buffers")
	}
	ReleaseScratch(m)
	for _, c := range convs {
		if c.col != nil {
			t.Fatal("ReleaseScratch left a cached buffer behind")
		}
	}
}

// A full model forward/backward must agree with the same model whose
// convolutions run the direct-loop reference over the same Params, within
// gradcheck tolerance, train and eval mode alike.
func TestModelBackendsAgree(t *testing.T) {
	build := func() (*Model, *tensor.Tensor) {
		m := CNN3([]int{3, 16, 16}, 10, 4, rand.New(rand.NewSource(77)))
		x := tensor.Randn(rand.New(rand.NewSource(78)), 1, 4, 3, 16, 16)
		return m, x
	}
	md, xd := build()
	mg, xg := build()
	swapDirectConvs(md)
	if n := len(CollectConvs(md)); n != 0 {
		t.Fatalf("%d convolutions left unswapped", n)
	}
	for _, train := range []bool{true, false} {
		outD := md.Forward(xd, train)
		outG := mg.Forward(xg, train)
		for j := range outD.Data {
			if math.Abs(outD.Data[j]-outG.Data[j]) > 1e-9*(1+math.Abs(outD.Data[j])) {
				t.Fatalf("train=%v: logits[%d] diverge: %v vs %v",
					train, j, outD.Data[j], outG.Data[j])
			}
		}
		grad := tensor.Randn(rand.New(rand.NewSource(79)), 1, outD.Shape()...)
		dxD := md.Backward(grad.Clone())
		dxG := mg.Backward(grad.Clone())
		for j := range dxD.Data {
			if math.Abs(dxD.Data[j]-dxG.Data[j]) > 1e-9*(1+math.Abs(dxD.Data[j])) {
				t.Fatalf("train=%v: dX[%d] diverges: %v vs %v", train, j, dxD.Data[j], dxG.Data[j])
			}
		}
	}
}

func TestMaxPoolPanicsOnIndivisibleInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MaxPool2D must panic when H or W is not divisible by the kernel")
		}
	}()
	rng := rand.New(rand.NewSource(1))
	NewMaxPool2D(2).Forward(tensor.Randn(rng, 1, 1, 1, 5, 4), true)
}

// The running variance must use the unbiased (÷(n−1)) estimator while batch
// normalization itself stays biased (÷n).
func TestBatchNormRunningVarUnbiased(t *testing.T) {
	bn := NewBatchNorm2D(1)
	// 2 samples of 1×1×1: values 0 and 2 → mean 1, biased var 1, unbiased 2.
	x := tensor.FromSlice([]float64{0, 2}, 2, 1, 1, 1)
	bn.Forward(x, true)
	wantRV := (1-bn.Momentum)*1 + bn.Momentum*2
	if got := bn.RunningVar.Data[0]; math.Abs(got-wantRV) > 1e-12 {
		t.Fatalf("RunningVar = %v, want %v (unbiased)", got, wantRV)
	}
	// Normalization itself must still use the biased variance: with ÷n the
	// outputs are ±1/√(1+eps), with ÷(n−1) they would be ±1/√(2+eps).
	out := bn.Forward(x, true)
	want := 1 / math.Sqrt(1+bn.Eps)
	if math.Abs(out.Data[1]-want) > 1e-9 {
		t.Fatalf("normalized output %v, want %v (biased batch var)", out.Data[1], want)
	}
}

// Give the test binary real concurrency even on single-CPU CI, so the
// GEMM convolution's ParallelFor fan-out (images, weight rows) actually runs
// multi-worker here and under -race, and the bit-identity assertions above
// prove scheduling independence rather than trivially passing inline.
func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}
