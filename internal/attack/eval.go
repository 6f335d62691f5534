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
	if ds.Len() == 0 {
		return 0
	}
	correct := 0
	for start := 0; start < ds.Len(); start += batch {
		end := start + batch
		if end > ds.Len() {
			end = ds.Len()
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		x, y := data.Batch(ds, idx)
		out := model.Forward(x, false)
		for b := range y {
			if out.ArgMaxRow(b) == y[b] {
				correct++
			}
		}
	}
	return float64(correct) / float64(ds.Len())
}

// AdvAccuracy evaluates robust accuracy under a single PGD configuration.
func AdvAccuracy(model nn.Layer, ds *data.Dataset, batch int, cfg Config, rng *rand.Rand) float64 {
	if ds.Len() == 0 {
		return 0
	}
	correct := 0
	for start := 0; start < ds.Len(); start += batch {
		end := start + batch
		if end > ds.Len() {
			end = ds.Len()
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		x, y := data.Batch(ds, idx)
		adv := Perturb(cfg, x, CEGradFn(model, y), rng)
		out := model.Forward(adv, false)
		for b := range y {
			if out.ArgMaxRow(b) == y[b] {
				correct++
			}
		}
	}
	return float64(correct) / float64(ds.Len())
}

// AutoAttackAccuracy is the AutoAttack surrogate: a sample counts as robust
// only if it survives every attack in the ensemble — CE-PGD with two random
// restarts, CW-margin PGD, momentum PGD, and the gradient-free Square-style
// attack (mirroring real AutoAttack's APGD-CE / APGD-DLR / black-box trio).
// By construction the result is ≤ plain PGD accuracy with the same budget.
func AutoAttackAccuracy(model nn.Layer, ds *data.Dataset, batch int, eps float64, steps int, rng *rand.Rand) float64 {
	if ds.Len() == 0 {
		return 0
	}
	robust := make([]bool, ds.Len())
	for i := range robust {
		robust[i] = true
	}

	// forEachSurvivingBatch applies an attack to the still-robust samples
	// and records newly broken ones.
	forEachSurvivingBatch := func(run func(x *tensor.Tensor, y []int) *tensor.Tensor) {
		for start := 0; start < ds.Len(); start += batch {
			end := start + batch
			if end > ds.Len() {
				end = ds.Len()
			}
			idx := make([]int, 0, end-start)
			for i := start; i < end; i++ {
				if robust[i] {
					idx = append(idx, i)
				}
			}
			if len(idx) < 1 {
				continue
			}
			x, y := data.Batch(ds, idx)
			adv := run(x, y)
			out := model.Forward(adv, false)
			for b, id := range idx {
				if out.ArgMaxRow(b) != y[b] {
					robust[id] = false
				}
			}
		}
	}

	cfg := PGDConfig(eps, steps)
	for restart := 0; restart < 2; restart++ {
		forEachSurvivingBatch(func(x *tensor.Tensor, y []int) *tensor.Tensor {
			return Perturb(cfg, x, CEGradFn(model, y), rng)
		})
	}
	forEachSurvivingBatch(func(x *tensor.Tensor, y []int) *tensor.Tensor {
		return Perturb(cfg, x, CWGradFn(model, y), rng)
	})
	forEachSurvivingBatch(func(x *tensor.Tensor, y []int) *tensor.Tensor {
		return MIFGSM(eps, steps, 1.0, x, CEGradFn(model, y), rng)
	})
	if ds.InShape != nil && len(ds.InShape) == 3 {
		forEachSurvivingBatch(func(x *tensor.Tensor, y []int) *tensor.Tensor {
			return SquareAttack(eps, 2*steps, x, CELossFn(model, y), rng)
		})
	}

	n := 0
	for _, r := range robust {
		if r {
			n++
		}
	}
	return float64(n) / float64(ds.Len())
}
