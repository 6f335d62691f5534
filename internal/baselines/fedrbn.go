package baselines

import (
	"context"
	"math/rand"

	"fedprophet/internal/fl"
	"fedprophet/internal/memmodel"
	"fedprophet/internal/nn"
	"fedprophet/internal/simlat"
)

// FedRBN is Federated Robustness Propagation (Hong et al. 2023) adapted to
// the memory-heterogeneous setting as in Appendix B.2: clients whose memory
// cannot afford adversarial training run standard training on the full model
// instead, and robustness is propagated by sharing the batch-norm statistics
// of the adversarially training clients. Homogeneous models avoid objective
// inconsistency (high clean accuracy) but robustness collapses when most
// clients cannot afford AT — the behaviour Table 2 reports.
type FedRBN struct {
	Build func(rng *rand.Rand) *nn.Model
	// ATCostFactor scales the memory a client needs before it is allowed to
	// adversarially train: AT needs the full training state plus the
	// perturbed-batch workspace.
	ATCostFactor float64
}

// Name identifies the method.
func (f *FedRBN) Name() string { return "FedRBN" }

// Run executes the federated rounds.
func (f *FedRBN) Run(ctx context.Context, env *fl.Env) (*fl.Result, error) {
	modelSeed := env.Rng.Int63()
	replicas := buildReplicas(f.Build, env.ClientWorkers(), modelSeed)
	model := replicas[0]
	cost := memmodel.MemReqModel(model, env.Cfg.Batch)
	cal := simlat.NewMemCalibration(env.Fleet.PoolMaxMemGB(), cost.TotalBytes)
	res := &fl.Result{Method: f.Name(), Extra: map[string]float64{}}
	atk := env.TrainAttackConfig(env.Cfg.TrainPGD)
	atFactor := f.ATCostFactor
	if atFactor <= 0 {
		atFactor = 1.0
	}

	global := nn.ExportParams(model)
	globalBN := nn.ExportBNStats(model)
	atClients := 0
	totalClients := 0
	var commBytes int64

	for round := 0; round < env.Cfg.Rounds; round++ {
		r := env.DrawRound(round)

		type clientOut struct {
			doAT  bool
			loss  float64
			vec   []float64
			bn    []float64
			lat   simlat.Latency
			bytes int64
		}
		outs := make([]clientOut, len(r.Clients))
		err := fl.ForEachClient(ctx, env.ClientWorkers(), len(r.Clients), r.Seeds, func(slot, i int, crng *rand.Rand) {
			budget := cal.Budget(r.Devices[i].AvailMemGB)
			doAT := float64(budget) >= atFactor*float64(cost.TotalBytes)
			catk := atk
			if !doAT {
				catk = env.TrainAttackConfig(0)
			}
			m := replicas[slot]
			nn.ImportParams(m, global)
			nn.ImportBNStats(m, globalBN)
			loss, iters := fl.LocalTrain(m, env.Subsets[r.Clients[i]], env.Cfg, r.LR, catk, crng)
			vec := nn.ExportParams(m)
			bn := nn.ExportBNStats(m)
			w := clientWork(cost.ForwardFLOPs, cost.TotalBytes, budget,
				iters, env.Cfg.Batch, catk.Steps, true /* full model may swap */)
			outs[i] = clientOut{doAT, loss, vec, bn, simlat.ClientLatency(w, r.Devices[i]),
				int64(4 * (len(vec) + len(bn)))}
		})
		if err != nil {
			nn.ImportParams(model, global)
			nn.ImportBNStats(model, globalBN)
			res.Model = model
			return res, fl.PartialProgress(err, round)
		}

		var vecs, robustBN [][]float64
		var ws, robustW []float64
		var lats []simlat.Latency
		roundLoss := 0.0
		for i, o := range outs {
			weight := float64(env.Subsets[r.Clients[i]].Len())
			vecs = append(vecs, o.vec)
			ws = append(ws, weight)
			if o.doAT {
				robustBN = append(robustBN, o.bn)
				robustW = append(robustW, weight)
				atClients++
			}
			totalClients++
			lats = append(lats, o.lat)
			roundLoss += o.loss
			commBytes += o.bytes
		}
		global = env.Aggregate(vecs, ws)
		// Robustness propagation: adversarial BN statistics come only from
		// the AT clients; without any this round, keep the previous ones.
		if len(robustBN) > 0 {
			globalBN = env.Aggregate(robustBN, robustW)
		}
		env.Record(res, lats, fl.RoundMetrics{Round: round, Loss: roundLoss / float64(len(r.Clients))})
	}
	nn.ImportParams(model, global)
	nn.ImportBNStats(model, globalBN)
	res.Extra["mem_full_bytes"] = float64(cost.TotalBytes)
	res.Extra["at_client_frac"] = 0
	if totalClients > 0 {
		res.Extra["at_client_frac"] = float64(atClients) / float64(totalClients)
	}
	res.Extra["comm_up_bytes"] = float64(commBytes)
	return finishResult(res, model, env), nil
}
