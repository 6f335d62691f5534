package nn

import (
	"math"
	"math/rand"
	"testing"

	"fedprophet/internal/tensor"
)

func TestVGG16SShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := VGG16S([]int{3, 16, 16}, 10, 4, rng)
	if len(m.Atoms) != 16 {
		t.Fatalf("VGG16-S should have 16 atoms (13 conv + 3 fc), got %d", len(m.Atoms))
	}
	out := m.OutShape([]int{3, 16, 16})
	if len(out) != 1 || out[0] != 10 {
		t.Fatalf("OutShape = %v, want [10]", out)
	}
	x := tensor.Randn(rng, 1, 2, 3, 16, 16)
	y := m.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 10 {
		t.Fatalf("forward shape %v", y.Shape())
	}
}

func TestResNet34SShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := ResNet34S([]int{3, 24, 24}, 32, 4, rng)
	// conv1 + 16 blocks + head = 18 atoms.
	if len(m.Atoms) != 18 {
		t.Fatalf("ResNet34-S should have 18 atoms, got %d", len(m.Atoms))
	}
	out := m.OutShape([]int{3, 24, 24})
	if out[0] != 32 {
		t.Fatalf("OutShape = %v", out)
	}
	x := tensor.Randn(rng, 1, 2, 3, 24, 24)
	y := m.Forward(x, true)
	if y.Dim(1) != 32 {
		t.Fatalf("forward shape %v", y.Shape())
	}
}

func TestSmallModels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range []*Model{
		CNN3([]int{3, 16, 16}, 10, 4, rng),
		CNN4([]int{3, 24, 24}, 32, 4, rng),
		VGG11S([]int{3, 16, 16}, 10, 4, rng),
		VGG13S([]int{3, 16, 16}, 10, 4, rng),
		ResNet10S([]int{3, 24, 24}, 32, 4, rng),
		ResNet18S([]int{3, 24, 24}, 32, 4, rng),
	} {
		out := m.OutShape(m.InShape)
		if out[0] != m.NumClasses {
			t.Fatalf("%s OutShape = %v, want %d classes", m.Label, out, m.NumClasses)
		}
		x := tensor.Randn(rng, 1, 2, m.InShape[0], m.InShape[1], m.InShape[2])
		y := m.Forward(x, false)
		if y.Dim(1) != m.NumClasses {
			t.Fatalf("%s forward shape %v", m.Label, y.Shape())
		}
	}
}

func TestModelFLOPsPositiveAndOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	small := CNN3([]int{3, 16, 16}, 10, 4, rng)
	large := VGG16S([]int{3, 16, 16}, 10, 8, rng)
	fs := small.ForwardFLOPs(small.InShape)
	fl := large.ForwardFLOPs(large.InShape)
	if fs <= 0 || fl <= 0 {
		t.Fatalf("FLOPs must be positive: %d %d", fs, fl)
	}
	if fl <= fs {
		t.Fatalf("VGG16-S (%d) must cost more than CNN3 (%d)", fl, fs)
	}
}

func TestExportImportParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := CNN3([]int{3, 16, 16}, 10, 4, rng)
	b := CNN3([]int{3, 16, 16}, 10, 4, rand.New(rand.NewSource(6)))
	v := ExportParams(a)
	ImportParams(b, v)
	va, vb := ExportParams(a), ExportParams(b)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestSGDStepReducesQuadratic(t *testing.T) {
	// Minimize f(w) = ½‖w‖² with SGD; the iterates must decay geometrically.
	p := NewParam("w", tensor.FromSlice([]float64{5, -3}, 2), false)
	opt := NewSGD(0.1, 0, 0)
	for i := 0; i < 100; i++ {
		copy(p.Grad.Data, p.Data.Data) // grad of ½‖w‖² is w
		opt.Step([]*Param{p})
	}
	if p.Data.L2Norm() > 1e-3 {
		t.Fatalf("SGD failed to minimize quadratic, ‖w‖=%g", p.Data.L2Norm())
	}
}

func TestSGDMomentumAcceleratesOnIllConditioned(t *testing.T) {
	run := func(momentum float64) float64 {
		p := NewParam("w", tensor.FromSlice([]float64{1, 1}, 2), false)
		opt := NewSGD(0.02, momentum, 0)
		for i := 0; i < 60; i++ {
			p.Grad.Data[0] = p.Data.Data[0] * 10 // κ = 10
			p.Grad.Data[1] = p.Data.Data[1]
			opt.Step([]*Param{p})
		}
		return p.Data.L2Norm()
	}
	if run(0.9) >= run(0) {
		t.Fatal("momentum should converge faster on ill-conditioned quadratic")
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float64{1}, 1), false)
	opt := NewSGD(0.1, 0, 0.5)
	p.Grad.Data[0] = 0
	opt.Step([]*Param{p})
	if p.Data.Data[0] >= 1 {
		t.Fatal("weight decay must shrink weights with zero gradient")
	}
	// NoDecay parameters are untouched by decay.
	q := NewParam("b", tensor.FromSlice([]float64{1}, 1), true)
	opt.Step([]*Param{q})
	if q.Data.Data[0] != 1 {
		t.Fatal("NoDecay parameter must not shrink")
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := Softmax(tensor.Randn(rng, 3, 5, 7))
	for b := 0; b < 5; b++ {
		s := 0.0
		for j := 0; j < 7; j++ {
			s += p.At(b, j)
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", b, s)
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		1, 2, 0,
		5, 1, 1,
		0, 0, 3,
	}, 3, 3)
	got := Accuracy(logits, []int{1, 0, 0})
	if math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("Accuracy = %v", got)
	}
}

// A one-batch overfit test: a small CNN trained on a fixed batch must drive
// the loss near zero. This is the classic end-to-end sanity check that the
// whole substrate (conv, bn, pool, linear, CE, SGD) learns.
func TestOverfitSingleBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := CNN3([]int{3, 8, 8}, 4, 4, rng)
	x := tensor.Randn(rng, 1, 8, 3, 8, 8)
	labels := []int{0, 1, 2, 3, 0, 1, 2, 3}
	opt := NewSGD(0.05, 0.9, 0)

	var loss float64
	for it := 0; it < 150; it++ {
		out := m.Forward(x, true)
		var grad *tensor.Tensor
		loss, grad = SoftmaxCrossEntropy(out, labels)
		ZeroGrads(m)
		m.Backward(grad)
		opt.Step(m.Params())
	}
	if loss > 0.1 {
		t.Fatalf("failed to overfit single batch, loss %g", loss)
	}
	out := m.Forward(x, false)
	if acc := Accuracy(out, labels); acc < 0.99 {
		t.Fatalf("train accuracy %v after overfit", acc)
	}
}

// Accuracy, the tests' fit measure, returns the fraction of rows whose argmax
// equals the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	bsz := logits.Dim(0)
	if bsz == 0 {
		return 0
	}
	correct := 0
	for b := 0; b < bsz; b++ {
		if logits.ArgMaxRow(b) == labels[b] {
			correct++
		}
	}
	return float64(correct) / float64(bsz)
}
