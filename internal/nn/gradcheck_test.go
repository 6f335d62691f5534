package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"fedprophet/internal/tensor"
)

// numericalGrad estimates d(loss)/d(v[i]) by central differences, where loss
// is recomputed through the full forward pass each time.
func numericalGrad(loss func() float64, v []float64, i int) float64 {
	const h = 1e-5
	orig := v[i]
	v[i] = orig + h
	lp := loss()
	v[i] = orig - h
	lm := loss()
	v[i] = orig
	return (lp - lm) / (2 * h)
}

// gradSentinel pre-fills Param.Grad where a test asserts that a backward pass
// leaves parameter gradients untouched.
const gradSentinel = 12345.678

func fillGrads(l Layer, v float64) {
	for _, p := range l.Params() {
		p.Grad.Fill(v)
	}
}

// requireGradsUntouched fails if any Param.Grad element no longer holds the
// sentinel bit for bit.
func requireGradsUntouched(t *testing.T, l Layer) {
	t.Helper()
	for pi, p := range l.Params() {
		for i, g := range p.Grad.Data {
			if g != gradSentinel {
				t.Fatalf("param %d (%s): grad[%d] = %v, eval-mode backward must leave it at the sentinel", pi, p.Name, i, g)
			}
		}
	}
}

// checkLayerGrads validates the gradients of a layer against finite
// differences of a scalar loss L = Σ w ⊙ out (random fixed weights w make the
// check sensitive to every output element). The input gradient is checked in
// either mode; parameter gradients exist only after a train-mode pass, so they
// are checked against finite differences when train is true and required to
// be untouched when it is false.
func checkLayerGrads(t *testing.T, l Layer, x *tensor.Tensor, train bool, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	var lossWeights *tensor.Tensor

	forwardLoss := func() float64 {
		out := l.Forward(x, train)
		if lossWeights == nil {
			lossWeights = tensor.Randn(rng, 1, out.Shape()...)
		}
		return tensor.Dot(out, lossWeights)
	}

	// Analytic gradients.
	forwardLoss()
	if train {
		ZeroGrads(l)
	} else {
		fillGrads(l, gradSentinel)
	}
	dx := l.Backward(lossWeights.Clone())

	// Check input gradient on a sample of positions.
	for trial := 0; trial < 12; trial++ {
		i := rng.Intn(len(x.Data))
		ng := numericalGrad(forwardLoss, x.Data, i)
		ag := dx.Data[i]
		if math.Abs(ng-ag) > tol*(1+math.Abs(ng)) {
			t.Fatalf("input grad mismatch at %d: numeric %g analytic %g", i, ng, ag)
		}
	}

	if !train {
		requireGradsUntouched(t, l)
		return
	}
	// Check parameter gradients on a sample of positions.
	for _, p := range l.Params() {
		for trial := 0; trial < 8; trial++ {
			i := rng.Intn(p.Data.Len())
			ng := numericalGrad(forwardLoss, p.Data.Data, i)
			ag := p.Grad.Data[i]
			if math.Abs(ng-ag) > tol*(1+math.Abs(ng)) {
				t.Fatalf("%s grad mismatch at %d: numeric %g analytic %g", p.Name, i, ng, ag)
			}
		}
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(6, 4, rng)
	x := tensor.Randn(rng, 1, 3, 6)
	checkLayerGrads(t, l, x, true, 1e-6)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv2D(2, 3, 3, 1, 1, true, rng)
	x := tensor.Randn(rng, 1, 2, 2, 5, 5)
	checkLayerGrads(t, c, x, true, 1e-6)
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D(2, 4, 3, 2, 1, false, rng)
	x := tensor.Randn(rng, 1, 2, 2, 6, 6)
	checkLayerGrads(t, c, x, true, 1e-6)
}

func TestConv2D1x1Gradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewConv2D(3, 2, 1, 2, 0, false, rng)
	x := tensor.Randn(rng, 1, 2, 3, 4, 4)
	checkLayerGrads(t, c, x, true, 1e-6)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.Randn(rng, 1, 4, 7)
	// Nudge values away from 0 to avoid kink issues in finite differences.
	for i, v := range x.Data {
		if math.Abs(v) < 0.05 {
			x.Data[i] = 0.1
		}
	}
	checkLayerGrads(t, NewReLU(), x, true, 1e-6)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := tensor.Randn(rng, 1, 2, 2, 4, 4)
	checkLayerGrads(t, NewMaxPool2D(2), x, true, 1e-5)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.Randn(rng, 1, 2, 3, 4, 4)
	checkLayerGrads(t, NewGlobalAvgPool2D(), x, true, 1e-6)
}

func TestBatchNormTrainGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bn := NewBatchNorm2D(3)
	x := tensor.Randn(rng, 1, 4, 3, 3, 3)
	checkLayerGrads(t, bn, x, true, 1e-4)
}

func TestBatchNormEvalGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bn := NewBatchNorm2D(2)
	// Populate running stats with a train pass first.
	warm := tensor.Randn(rng, 1, 8, 2, 4, 4)
	bn.Forward(warm, true)
	x := tensor.Randn(rng, 1, 3, 2, 4, 4)
	checkLayerGrads(t, bn, x, false, 1e-6)
}

func TestBasicBlockGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	b := NewBasicBlock(2, 4, 2, rng)
	x := tensor.Randn(rng, 1, 2, 2, 6, 6)
	checkLayerGrads(t, b, x, true, 1e-4)
}

func TestBasicBlockIdentityGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBasicBlock(3, 3, 1, rng)
	x := tensor.Randn(rng, 1, 2, 3, 4, 4)
	checkLayerGrads(t, b, x, true, 1e-4)
}

func TestSequentialGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := NewSequential("test",
		NewConv2D(2, 3, 3, 1, 1, false, rng),
		NewBatchNorm2D(3),
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewLinear(3*2*2, 5, rng),
	)
	x := tensor.Randn(rng, 1, 2, 2, 4, 4)
	checkLayerGrads(t, s, x, true, 1e-4)
}

func TestSoftmaxCrossEntropyGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	logits := tensor.Randn(rng, 1, 4, 5)
	labels := []int{1, 0, 3, 2}

	_, grad := SoftmaxCrossEntropy(logits, labels)
	for trial := 0; trial < 20; trial++ {
		i := rng.Intn(logits.Len())
		ng := numericalGrad(func() float64 {
			l, _ := SoftmaxCrossEntropy(logits, labels)
			return l
		}, logits.Data, i)
		if math.Abs(ng-grad.Data[i]) > 1e-6*(1+math.Abs(ng)) {
			t.Fatalf("CE grad mismatch at %d: numeric %g analytic %g", i, ng, grad.Data[i])
		}
	}
}

func TestCWMarginLossGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	logits := tensor.Randn(rng, 2, 3, 6) // well-separated to avoid argmax kinks
	labels := []int{1, 5, 0}
	_, grad := CWMarginLoss(logits, labels)
	for trial := 0; trial < 15; trial++ {
		i := rng.Intn(logits.Len())
		ng := numericalGrad(func() float64 {
			l, _ := CWMarginLoss(logits, labels)
			return l
		}, logits.Data, i)
		if math.Abs(ng-grad.Data[i]) > 1e-5*(1+math.Abs(ng)) {
			t.Fatalf("CW grad mismatch at %d: numeric %g analytic %g", i, ng, grad.Data[i])
		}
	}
}

// A row whose other logits are all NaN has no runner-up above −Inf; its
// +1/B must still land in its own row (it used to land on the previous
// sample's last logit, or index −1 for the first sample), and a single class
// has no margin at all.
func TestCWMarginLossNaNRowAndOneClass(t *testing.T) {
	nan := math.NaN()
	for _, cs := range []struct {
		logits []float64
		labels []int
		want   []float64
	}{
		{[]float64{1, 0, 2, nan, nan, 0}, []int{0, 2}, []float64{-0.5, 0, 0.5, 0.5, 0, -0.5}},
		{[]float64{nan, nan, 0}, []int{2}, []float64{1, 0, -1}},
		{[]float64{nan, 3, nan}, []int{0}, []float64{-1, 1, 0}},
	} {
		k := len(cs.logits) / len(cs.labels)
		_, grad := CWMarginLoss(tensor.FromSlice(cs.logits, len(cs.labels), k), cs.labels)
		for i, w := range cs.want {
			if grad.Data[i] != w {
				t.Fatalf("logits %v labels %v: grad %v, want %v", cs.logits, cs.labels, grad.Data, cs.want)
			}
		}
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "at least 2 classes") {
			t.Fatalf("K = 1: panic %q, want one naming the class count", msg)
		}
	}()
	CWMarginLoss(tensor.FromSlice([]float64{0.5}, 1, 1), []int{0})
}

func TestKLDivergenceGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	logits := tensor.Randn(rng, 1, 3, 4)
	teacher := Softmax(tensor.Randn(rng, 1, 3, 4))
	_, grad := KLDivergence(logits, teacher)
	for trial := 0; trial < 15; trial++ {
		i := rng.Intn(logits.Len())
		ng := numericalGrad(func() float64 {
			l, _ := KLDivergence(logits, teacher)
			return l
		}, logits.Data, i)
		if math.Abs(ng-grad.Data[i]) > 1e-5*(1+math.Abs(ng)) {
			t.Fatalf("KL grad mismatch at %d: numeric %g analytic %g", i, ng, grad.Data[i])
		}
	}
}
