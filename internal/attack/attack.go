// Package attack implements the adversarial-example machinery of the
// FedProphet reproduction: FGSM, PGD-n under ℓ∞ and ℓ2 constraints, a
// Carlini–Wagner-margin PGD, and a multi-attack ensemble that stands in for
// AutoAttack (one of the paper-scale substitutions; see docs/ARCHITECTURE.md
// for the layer map). Attacks operate on any
// differentiable loss via a GradFn, so the same code perturbs raw images
// (ε = 8/255 in ℓ∞) and intermediate cascade features (ℓ2 balls).
//
//lint:deterministic
package attack

import (
	"math"
	"math/rand"

	"fedprophet/internal/tensor"
)

// Norm selects the perturbation constraint.
type Norm int

// Supported perturbation norms.
const (
	LInf Norm = iota
	L2
)

// GradFn evaluates the attacked loss and its gradient with respect to the
// (already perturbed) input batch.
type GradFn func(x *tensor.Tensor) (float64, *tensor.Tensor)

// Config describes one PGD attack.
type Config struct {
	Eps         float64 // perturbation budget
	StepSize    float64 // gradient-ascent step α
	Steps       int     // number of PGD iterations (1 = FGSM when RandomStart off)
	Norm        Norm
	RandomStart bool
	// Clamp bounds for the perturbed input; used for image space ([0,1]).
	// Set ClampMin > ClampMax (e.g. 1, 0) to disable clamping for feature
	// space.
	ClampMin, ClampMax float64
}

// PGDConfig returns the paper's training/eval attack: ℓ∞ PGD with
// α = ε/4 (a common choice giving ε coverage in a few steps) and random
// start, clamped to [0,1].
func PGDConfig(eps float64, steps int) Config {
	return Config{
		Eps: eps, StepSize: eps / 4, Steps: steps, Norm: LInf,
		RandomStart: true, ClampMin: 0, ClampMax: 1,
	}
}

// FeaturePGDConfig returns the intermediate-feature attack used by
// adversarial cascade learning: an ℓ2 ball of radius eps with no clamping.
func FeaturePGDConfig(eps float64, steps int) Config {
	return Config{
		Eps: eps, StepSize: eps / 2, Steps: steps, Norm: L2,
		RandomStart: true, ClampMin: 1, ClampMax: 0, // disabled
	}
}

func (c Config) clampEnabled() bool { return c.ClampMin <= c.ClampMax }

// perSample applies f to each sample slice of a batched tensor.
func perSample(t *tensor.Tensor, f func(s []float64)) {
	bsz := t.Dim(0)
	per := t.Len() / bsz
	for b := 0; b < bsz; b++ {
		f(t.Data[b*per : (b+1)*per])
	}
}

func l2norm(s []float64) float64 {
	v := 0.0
	for _, x := range s {
		v += x * x
	}
	return math.Sqrt(v)
}

// Perturb runs PGD from x and returns the adversarial input x+δ with
// ‖δ‖ ≤ Eps per sample. The input tensor is not modified.
func Perturb(cfg Config, x *tensor.Tensor, grad GradFn, rng *rand.Rand) *tensor.Tensor {
	adv := x.Clone()
	if cfg.RandomStart {
		switch cfg.Norm {
		case LInf:
			for i := range adv.Data {
				adv.Data[i] += (rng.Float64()*2 - 1) * cfg.Eps
			}
		case L2:
			noise := tensor.Randn(rng, 1, x.Shape()...)
			perSample(noise, func(s []float64) {
				n := l2norm(s)
				if n > 0 {
					scale := cfg.Eps * rng.Float64() / n
					for i := range s {
						s[i] *= scale
					}
				}
			})
			adv.AddInPlace(noise)
		}
		projectAndClamp(cfg, adv, x)
	}

	for step := 0; step < cfg.Steps; step++ {
		_, g := grad(adv)
		switch cfg.Norm {
		case LInf:
			for i := range adv.Data {
				if g.Data[i] > 0 {
					adv.Data[i] += cfg.StepSize
				} else if g.Data[i] < 0 {
					adv.Data[i] -= cfg.StepSize
				}
			}
		case L2:
			bsz := adv.Dim(0)
			per := adv.Len() / bsz
			for b := 0; b < bsz; b++ {
				gs := g.Data[b*per : (b+1)*per]
				as := adv.Data[b*per : (b+1)*per]
				n := l2norm(gs)
				if n == 0 {
					continue
				}
				scale := cfg.StepSize / n
				for i := range as {
					as[i] += scale * gs[i]
				}
			}
		}
		projectAndClamp(cfg, adv, x)
	}
	return adv
}

// projectAndClamp projects adv−x into the ε-ball per sample, then clamps adv
// into the valid input range.
func projectAndClamp(cfg Config, adv, x *tensor.Tensor) {
	switch cfg.Norm {
	case LInf:
		for i := range adv.Data {
			d := adv.Data[i] - x.Data[i]
			if d > cfg.Eps {
				d = cfg.Eps
			} else if d < -cfg.Eps {
				d = -cfg.Eps
			}
			adv.Data[i] = x.Data[i] + d
		}
	case L2:
		bsz := adv.Dim(0)
		per := adv.Len() / bsz
		for b := 0; b < bsz; b++ {
			as := adv.Data[b*per : (b+1)*per]
			xs := x.Data[b*per : (b+1)*per]
			n := 0.0
			for i := range as {
				d := as[i] - xs[i]
				n += d * d
			}
			n = math.Sqrt(n)
			if n > cfg.Eps && n > 0 {
				scale := cfg.Eps / n
				for i := range as {
					as[i] = xs[i] + (as[i]-xs[i])*scale
				}
			}
		}
	}
	if cfg.clampEnabled() {
		adv.ClampInPlace(cfg.ClampMin, cfg.ClampMax)
	}
}
