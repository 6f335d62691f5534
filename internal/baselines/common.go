// Package baselines implements the seven comparison methods of the
// FedProphet evaluation (§7.1, Appendix B.2): joint federated adversarial
// training (jFAT), the partial-training family (HeteroFL-AT, FedDrop-AT,
// FedRolex-AT), the knowledge-distillation family (FedDF-AT, FedET-AT), and
// Federated Robustness Propagation (FedRBN). Each is a client step and a
// fold run by fl's one round driver (fl.TrainRound), which owns the round
// schedule, the memory budgets, the latency and upload accounting and the
// final evaluation; every client step trains with fl's local PGD
// adversarial-training step (fl.LocalTrain).
//
//lint:deterministic
package baselines

import (
	"math/rand"

	"fedprophet/internal/attack"
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

// update is one client's upload of a whole model: its parameters, its
// batch-norm statistics and its FedAvg data-size weight.
type update struct {
	vec, bn []float64
	weight  float64
}

// trainModel is the client step of the whole-model methods: load the global
// state into m, train it locally under atk, and upload all of it. swap
// charges storage traffic when the model overflows the client's budget.
func trainModel(m *nn.Model, global, globalBN []float64, s fl.Seat, cfg fl.Config, atk attack.Config, cost memmodel.Costs, swap bool) (update, fl.Client) {
	nn.ImportParams(m, global)
	nn.ImportBNStats(m, globalBN)
	loss, iters := fl.LocalTrain(m, s.Data, cfg, s.Round.LR, atk, s.Rng)
	u := update{nn.ExportParams(m), nn.ExportBNStats(m), float64(s.Data.Len())}
	return u, fl.Client{
		Loss:    loss,
		Iters:   iters,
		Work:    clientWork(cost.ForwardFLOPs, cost.TotalBytes, s.Budget, iters, cfg.Batch, atk.Steps, swap),
		UpBytes: int64(4 * (len(u.vec) + len(u.bn))),
	}
}

// average folds updates into new global parameters and BN statistics.
func average(env *fl.Env, ups []update) (global, globalBN []float64) {
	vecs, bns, ws := make([][]float64, len(ups)), make([][]float64, len(ups)), make([]float64, len(ups))
	for i, u := range ups {
		vecs[i], bns[i], ws[i] = u.vec, u.bn, u.weight
	}
	return env.Aggregate(vecs, ws), env.Aggregate(bns, ws)
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
