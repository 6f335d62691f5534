// Package baselines implements the seven comparison methods of the
// FedProphet evaluation (§7.1, Appendix B.2): joint federated adversarial
// training (jFAT), the partial-training family (HeteroFL-AT, FedDrop-AT,
// FedRolex-AT), the knowledge-distillation family (FedDF-AT, FedET-AT), and
// Federated Robustness Propagation (FedRBN). All of them share the fl.Method
// interface, the local PGD adversarial-training loop, and the latency
// accounting of internal/simlat.
//
//lint:deterministic
package baselines

import (
	"math"
	"math/rand"

	"fedprophet/internal/attack"
	"fedprophet/internal/data"
	"fedprophet/internal/fl"
	"fedprophet/internal/memmodel"
	"fedprophet/internal/nn"
	"fedprophet/internal/simlat"
)

// localTrain runs E local iterations of (adversarially) perturbed SGD on
// `model` over the client subset and reports the mean training loss and the
// number of iterations executed. A zero-step attack config selects standard
// training.
func localTrain(model nn.Layer, sub *data.Subset, cfg fl.Config, lr float64, atk attack.Config, rng *rand.Rand) (float64, int) {
	opt := nn.NewSGD(lr, cfg.Momentum, cfg.WeightDecay)
	nn.ResetMomentum(model.Params())
	batches := data.Batches(sub.Indices, cfg.Batch, rng)
	if len(batches) == 0 {
		return 0, 0
	}
	totalLoss := 0.0
	iters := 0
	for iters < cfg.LocalIters {
		for _, b := range batches {
			if iters >= cfg.LocalIters {
				break
			}
			x, y := data.Batch(sub.Parent, b)
			if atk.Steps > 0 {
				x = attack.Perturb(atk, x, attack.CEGradFn(model, y), rng)
			}
			out := model.Forward(x, true)
			loss, g := nn.SoftmaxCrossEntropy(out, y)
			nn.ZeroGrads(model)
			model.Backward(g)
			opt.Step(model.Params())
			totalLoss += loss
			iters++
		}
	}
	return totalLoss / float64(iters), iters
}

// clientWork builds the simlat work unit for one client's local training.
func clientWork(forwardPerSample int64, memReq, budget int64, iters, batch, pgdSteps int, swap bool) simlat.Work {
	return simlat.Work{
		FLOPs:     int64(iters) * memmodel.TrainingFLOPs(forwardPerSample, batch, pgdSteps),
		MemReq:    memReq,
		MemBudget: budget,
		Passes:    int64(iters) * simlat.PassesPerBatch(pgdSteps),
		Swap:      swap,
	}
}

// decayedLR returns ηt = γ^t·η0.
func decayedLR(cfg fl.Config, round int) float64 {
	return cfg.LR * math.Pow(cfg.LRDecay, float64(round))
}

// finishResult evaluates the final model and fills the result.
func finishResult(res *fl.Result, model nn.Layer, env *fl.Env) *fl.Result {
	clean, pgd, aa := fl.Evaluate(model, env.Test, env.Cfg, env.Rng)
	res.CleanAcc, res.PGDAcc, res.AAAcc = clean, pgd, aa
	res.Model = model
	return res
}

// buildReplicas constructs one structurally identical model replica per
// worker slot, all seeded from the same modelSeed so that initial weights
// (immediately overwritten by the global import) and architecture agree.
func buildReplicas(build func(*rand.Rand) *nn.Model, workers int, modelSeed int64) []*nn.Model {
	replicas := make([]*nn.Model, workers)
	for s := range replicas {
		replicas[s] = build(rand.New(rand.NewSource(modelSeed)))
	}
	return replicas
}
