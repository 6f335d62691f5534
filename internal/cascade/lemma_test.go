package cascade

import (
	"math"
	"math/rand"
	"testing"

	"fedprophet/internal/attack"
	"fedprophet/internal/memmodel"
	"fedprophet/internal/nn"
	"fedprophet/internal/tensor"
)

// TestLemma1StrongConvexityBound verifies the paper's Lemma 1 pointwise: for
// the µ-strongly-convex early-exit loss
//
//	lm(z) = CE(Wᵀz + b, y) + µ/2·‖z‖²
//
// and ANY input perturbation δ, the output perturbation Δz = z(x+δ) − z(x)
// obeys
//
//	‖Δz‖₂ ≤ ‖∇lm(z)‖₂/µ + sqrt(2·c/µ + ‖∇lm(z)‖₂²/µ²)
//
// where c = lm(z+Δz) − lm(z) is that point's loss increase. The bound is an
// exact consequence of strong convexity (Appendix A.1), so it must hold for
// every perturbation we can construct — adversarial or random.
func TestLemma1StrongConvexityBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	model := nn.CNN3([]int{2, 8, 8}, 4, 4, rng)
	full := memmodel.MemReqModel(model, 2).TotalBytes
	c := Partition(model, full/3, 2, rng)
	if len(c.Modules) < 2 {
		t.Skip("need an intermediate module with an aux head")
	}
	mod := c.Modules[0]
	mu := 0.05
	label := []int{1}

	// One-sample batch keeps per-sample and batch-mean norms identical.
	zin := tensor.Uniform(rng, 0, 1, 1, 2, 8, 8)
	// Warm the batch-norm statistics, then freeze in eval mode.
	mod.Backbone.Forward(tensor.Uniform(rng, 0, 1, 8, 2, 8, 8), true)

	// lm(zout) and its gradient with respect to zout.
	lm := func(zout *tensor.Tensor) float64 {
		logits := mod.Aux.Forward(zout, false)
		l, _ := nn.SoftmaxCrossEntropy(logits, label)
		return l + mu/2*tensor.Dot(zout, zout)
	}
	gradLm := func(zout *tensor.Tensor) *tensor.Tensor {
		logits := mod.Aux.Forward(zout, false)
		_, g := nn.SoftmaxCrossEntropy(logits, label)
		for _, p := range mod.Aux.Params() {
			p.ZeroGrad()
		}
		gz := mod.Aux.Backward(g)
		for i, v := range zout.Data {
			gz.Data[i] += mu * v
		}
		return gz
	}

	zClean := mod.Backbone.Forward(zin, false).Clone()
	lClean := lm(zClean)
	gNorm := gradLm(zClean).L2Norm()

	check := func(zAdvIn *tensor.Tensor, what string) {
		zOut := mod.Backbone.Forward(zAdvIn, false)
		dz := tensor.Sub(zOut, zClean)
		cPt := lm(zOut) - lClean
		if cPt < 0 {
			cPt = 0 // the bound only strengthens if the loss decreased
		}
		bound := gNorm/mu + math.Sqrt(2*cPt/mu+gNorm*gNorm/(mu*mu))
		if dz.L2Norm() > bound*(1+1e-9) {
			t.Fatalf("%s: Lemma 1 violated: ‖Δz‖=%g > bound %g (c=%g, ‖∇‖=%g)",
				what, dz.L2Norm(), bound, cPt, gNorm)
		}
	}

	// Adversarial perturbations of increasing radius.
	for _, eps := range []float64{0.05, 0.2, 0.5} {
		atk := attack.FeaturePGDConfig(eps, 6)
		adv := attack.Perturb(atk, zin, func(z *tensor.Tensor) (float64, *tensor.Tensor) {
			for _, p := range mod.Params() {
				p.ZeroGrad()
			}
			out := mod.Backbone.Forward(z, false)
			l := lm(out)
			g := gradLm(out)
			return l, mod.Backbone.Backward(g)
		}, rng)
		check(adv, "adversarial")
	}
	// Random perturbations.
	for trial := 0; trial < 10; trial++ {
		noise := tensor.Randn(rng, 0.1, zin.Shape()...)
		check(tensor.Add(zin, noise), "random")
	}
}

// TestProposition1RobustnessChain exercises the induction behind
// Proposition 1: bounding each module's output perturbation bounds the
// joint-loss degradation of the full cascade. We verify the measurable
// consequence — feeding module m+1 a perturbation no larger than module m's
// measured max output perturbation produces a bounded output perturbation at
// m+1, i.e. MaxOutputPerturbation composes monotonically along the cascade.
func TestProposition1RobustnessChain(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	model := nn.VGG16S([]int{3, 16, 16}, 10, 4, rng)
	full := memmodel.MemReqModel(model, 4).TotalBytes
	c := Partition(model, full/5, 4, rng)
	if len(c.Modules) < 3 {
		t.Skip("need ≥3 modules")
	}
	x := tensor.Uniform(rng, 0, 1, 4, 3, 16, 16)
	// Warm all BN stats.
	c.Full().Forward(x, true)

	eps := 8.0 / 255
	atk0 := attack.Config{Eps: eps, StepSize: eps / 2, Steps: 4, Norm: attack.LInf,
		RandomStart: true, ClampMin: 0, ClampMax: 1}
	d1 := MaxOutputPerturbation(c.Modules[0].Backbone, x, atk0, rng)
	if d1 <= 0 {
		t.Fatal("module 1 must propagate some perturbation")
	}

	z1 := c.ForwardPrefix(x, 1)
	d2 := MaxOutputPerturbation(c.Modules[1].Backbone, z1, attack.FeaturePGDConfig(d1, 4), rng)
	if d2 <= 0 {
		t.Fatal("module 2 must propagate some perturbation")
	}
	// The chain must be finite and roughly proportional to its input ball:
	// quadrupling the input ball must not shrink the output perturbation.
	d2big := MaxOutputPerturbation(c.Modules[1].Backbone, z1, attack.FeaturePGDConfig(4*d1, 4), rng)
	if d2big < d2*0.9 {
		t.Fatalf("output perturbation should grow with the input ball: %g vs %g", d2, d2big)
	}
}
