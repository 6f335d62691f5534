package baselines

import (
	"context"
	"math/rand"

	"fedprophet/internal/fl"
	"fedprophet/internal/memmodel"
	"fedprophet/internal/nn"
	"fedprophet/internal/simlat"
)

// JFAT is joint federated adversarial training (Zizzo et al. 2020): standard
// FedAvg where every selected client adversarially trains the whole large
// model end-to-end, swapping through storage whenever its memory cannot hold
// the full training state.
type JFAT struct {
	Build func(rng *rand.Rand) *nn.Model
}

// Name identifies the method.
func (j *JFAT) Name() string { return "jFAT" }

// Run executes the federated rounds.
func (j *JFAT) Run(ctx context.Context, env *fl.Env) (*fl.Result, error) {
	modelSeed := env.Rng.Int63()
	replicas := buildReplicas(j.Build, env.ClientWorkers(), modelSeed)
	model := replicas[0]
	cost := memmodel.MemReqModel(model, env.Cfg.Batch)
	cal := simlat.NewMemCalibration(env.Fleet.PoolMaxMemGB(), cost.TotalBytes)
	res := &fl.Result{Method: j.Name(), Extra: map[string]float64{}}
	atk := env.TrainAttackConfig(env.Cfg.TrainPGD)

	global := nn.ExportParams(model)
	globalBN := nn.ExportBNStats(model)
	var commBytes int64
	for round := 0; round < env.Cfg.Rounds; round++ {
		r := env.DrawRound(round)

		type clientOut struct {
			loss  float64
			vec   []float64
			bn    []float64
			lat   simlat.Latency
			bytes int64
		}
		outs := make([]clientOut, len(r.Clients))
		err := fl.ForEachClient(ctx, env.ClientWorkers(), len(r.Clients), r.Seeds, func(slot, i int, crng *rand.Rand) {
			m := replicas[slot]
			nn.ImportParams(m, global)
			nn.ImportBNStats(m, globalBN)
			loss, iters := fl.LocalTrain(m, env.Subsets[r.Clients[i]], env.Cfg, r.LR, atk, crng)
			vec := nn.ExportParams(m)
			bn := nn.ExportBNStats(m)
			w := clientWork(cost.ForwardFLOPs, cost.TotalBytes, cal.Budget(r.Devices[i].AvailMemGB),
				iters, env.Cfg.Batch, atk.Steps, true /* swap when constrained */)
			outs[i] = clientOut{loss, vec, bn, simlat.ClientLatency(w, r.Devices[i]), int64(4 * (len(vec) + len(bn)))}
		})
		if err != nil {
			nn.ImportParams(model, global)
			nn.ImportBNStats(model, globalBN)
			res.Model = model
			return res, fl.PartialProgress(err, round)
		}

		vecs := make([][]float64, len(outs))
		bnVecs := make([][]float64, len(outs))
		var lats []simlat.Latency
		roundLoss := 0.0
		for i, o := range outs {
			vecs[i], bnVecs[i] = o.vec, o.bn
			lats = append(lats, o.lat)
			roundLoss += o.loss
			commBytes += o.bytes
		}
		weights := fl.SubsetWeights(env.Subsets, r.Clients)
		global = env.Aggregate(vecs, weights)
		globalBN = env.Aggregate(bnVecs, weights)
		env.Record(res, lats, fl.RoundMetrics{Round: round, Loss: roundLoss / float64(len(r.Clients))})
	}
	nn.ImportParams(model, global)
	nn.ImportBNStats(model, globalBN)
	res.Extra["mem_full_bytes"] = float64(cost.TotalBytes)
	res.Extra["comm_up_bytes"] = float64(commBytes)
	return finishResult(res, model, env), nil
}
