package fl

import (
	"math/rand"

	"fedprophet/internal/attack"
	"fedprophet/internal/data"
	"fedprophet/internal/nn"
)

// Evaluate measures the paper's three evaluation metrics on a trained model:
// clean accuracy, robust accuracy under PGD-EvalPGD, and robust accuracy
// under the AutoAttack surrogate, all at ε = cfg.Eps in ℓ∞. The model goes
// idle afterwards (this is every method's last pass over it), so its
// convolution scratch, grown to EvalBatch, returns to the arena here instead
// of staying pinned by the Result that carries the model.
func Evaluate(model nn.Layer, test *data.Dataset, cfg Config, rng *rand.Rand) (clean, pgd, aa float64) {
	clean = attack.CleanAccuracy(model, test, cfg.EvalBatch)
	pgd = attack.AdvAccuracy(model, test, cfg.EvalBatch, attack.PGDConfig(cfg.Eps, cfg.EvalPGD), rng)
	aa = attack.AutoAttackAccuracy(model, test, cfg.EvalBatch, cfg.Eps, cfg.EvalAASteps, rng)
	nn.ReleaseScratch(model)
	return clean, pgd, aa
}

// SampleDataset draws a random subsample of at most n items; used for cheap
// per-round validation during training.
func SampleDataset(ds *data.Dataset, n int, rng *rand.Rand) *data.Dataset {
	if n >= ds.Len() {
		return ds
	}
	idx := rng.Perm(ds.Len())[:n]
	out := &data.Dataset{Name: ds.Name + "-sample", InShape: ds.InShape, NumClasses: ds.NumClasses}
	for _, i := range idx {
		out.X = append(out.X, ds.X[i])
		out.Y = append(out.Y, ds.Y[i])
	}
	return out
}
