// Package baselines implements the seven comparison methods of the
// FedProphet evaluation (§7.1, Appendix B.2): joint federated adversarial
// training (jFAT), the partial-training family (HeteroFL-AT, FedDrop-AT,
// FedRolex-AT), the knowledge-distillation family (FedDF-AT, FedET-AT), and
// Federated Robustness Propagation (FedRBN). All of them share the fl.Method
// interface, fl's round schedule (Env.DrawRound) and local PGD
// adversarial-training step (fl.LocalTrain), and the latency accounting of
// internal/simlat.
//
//lint:deterministic
package baselines

import (
	"math/rand"

	"fedprophet/internal/fl"
	"fedprophet/internal/memmodel"
	"fedprophet/internal/nn"
	"fedprophet/internal/simlat"
)

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
