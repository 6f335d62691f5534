package attack

import (
	"math/rand"

	"fedprophet/internal/data"
	"fedprophet/internal/nn"
	"fedprophet/internal/tensor"
)

// CEGradFn adapts a model to a GradFn maximizing cross-entropy. The model is
// evaluated in eval mode (running batch-norm statistics) so that attack
// forward passes never pollute training statistics — and, by the nn.Layer
// contract, so that the backward pass computes the input gradient only: no
// parameter gradient is computed, touched or needs zeroing.
func CEGradFn(model nn.Layer, labels []int) GradFn {
	return func(x *tensor.Tensor) (float64, *tensor.Tensor) {
		out := model.Forward(x, false)
		loss, g := nn.SoftmaxCrossEntropy(out, labels)
		return loss, model.Backward(g)
	}
}

// CWGradFn adapts a model to a GradFn maximizing the CW margin loss.
func CWGradFn(model nn.Layer, labels []int) GradFn {
	return func(x *tensor.Tensor) (float64, *tensor.Tensor) {
		out := model.Forward(x, false)
		loss, g := nn.CWMarginLoss(out, labels)
		return loss, model.Backward(g)
	}
}

// CleanAccuracy evaluates the model on the whole dataset in batches.
func CleanAccuracy(model nn.Layer, ds *data.Dataset, batch int) float64 {
	return robustFraction(model, ds, batch, func(x *tensor.Tensor, _ []int) *tensor.Tensor { return x })
}

// AdvAccuracy evaluates robust accuracy under a single PGD configuration.
func AdvAccuracy(model nn.Layer, ds *data.Dataset, batch int, cfg Config, rng *rand.Rand) float64 {
	return robustFraction(model, ds, batch, func(x *tensor.Tensor, y []int) *tensor.Tensor {
		return Perturb(cfg, x, CEGradFn(model, y), rng)
	})
}

// AutoAttackAccuracy is the AutoAttack surrogate: a sample counts as robust
// only if it survives every attack in the ensemble — CE-PGD with two random
// restarts, CW-margin PGD, momentum PGD, and the gradient-free Square-style
// attack (mirroring real AutoAttack's APGD-CE / APGD-DLR / black-box trio).
// By construction the result is ≤ plain PGD accuracy with the same budget.
func AutoAttackAccuracy(model nn.Layer, ds *data.Dataset, batch int, eps float64, steps int, rng *rand.Rand) float64 {
	cfg := PGDConfig(eps, steps)
	pgd := func(x *tensor.Tensor, y []int) *tensor.Tensor { return Perturb(cfg, x, CEGradFn(model, y), rng) }
	attacks := []func(x *tensor.Tensor, y []int) *tensor.Tensor{
		pgd, pgd,
		func(x *tensor.Tensor, y []int) *tensor.Tensor { return Perturb(cfg, x, CWGradFn(model, y), rng) },
		func(x *tensor.Tensor, y []int) *tensor.Tensor {
			return MIFGSM(eps, steps, 1.0, x, CEGradFn(model, y), rng)
		},
	}
	if len(ds.InShape) == 3 {
		attacks = append(attacks, func(x *tensor.Tensor, y []int) *tensor.Tensor {
			return SquareAttack(eps, 2*steps, x, CELossFn(model, y), rng)
		})
	}
	return robustFraction(model, ds, batch, attacks...)
}

// robustFraction is the one evaluation walk: each attack in turn walks ds in
// consecutive batches of at most batch samples, restricted to the samples
// every earlier attack left correctly classified, and breaks each sample the
// model misclassifies on the input the attack returns for its batch. It
// reports the fraction never broken (0 for an empty dataset).
func robustFraction(model nn.Layer, ds *data.Dataset, batch int, attacks ...func(x *tensor.Tensor, y []int) *tensor.Tensor) float64 {
	if ds.Len() == 0 {
		return 0
	}
	robust := make([]bool, ds.Len())
	for i := range robust {
		robust[i] = true
	}
	for _, run := range attacks {
		for start := 0; start < ds.Len(); start += batch {
			var idx []int
			for i := start; i < min(start+batch, ds.Len()); i++ {
				if robust[i] {
					idx = append(idx, i)
				}
			}
			if len(idx) == 0 {
				continue
			}
			x, y := data.Batch(ds, idx)
			out := model.Forward(run(x, y), false)
			for b, id := range idx {
				if out.ArgMaxRow(b) != y[b] {
					robust[id] = false
				}
			}
		}
	}
	n := 0
	for _, r := range robust {
		if r {
			n++
		}
	}
	return float64(n) / float64(ds.Len())
}
