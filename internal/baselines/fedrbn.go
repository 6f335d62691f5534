package baselines

import (
	"context"
	"math/rand"

	"fedprophet/internal/attack"
	"fedprophet/internal/fl"
	"fedprophet/internal/memmodel"
	"fedprophet/internal/nn"
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
}

// Name identifies the method.
func (f *FedRBN) Name() string { return "FedRBN" }

// rbnUpdate is a client's whole-model upload and whether it trained
// adversarially.
type rbnUpdate struct {
	update
	doAT bool
}

// Run executes the federated rounds.
func (f *FedRBN) Run(ctx context.Context, env *fl.Env) (*fl.Result, error) {
	replicas := buildReplicas(f.Build, env.ClientWorkers(), env.Rng.Int63())
	model := replicas[0]
	cost := memmodel.MemReqModel(model, env.Cfg.Batch)
	run := env.Start(f.Name(), cost.TotalBytes)
	atk := env.TrainAttackConfig()

	global, globalBN := nn.ExportParams(model), nn.ExportBNStats(model)
	atClients, totalClients := 0, 0
	var err error
	for round := 0; round < env.Cfg.Rounds && err == nil; round++ {
		err = fl.TrainRound(ctx, run, round, fl.RoundMetrics{}, func(s fl.Seat) (rbnUpdate, fl.Client) {
			// A client trains adversarially only if its budget holds the
			// full model's training memory.
			doAT := s.Budget >= cost.TotalBytes
			catk := atk
			if !doAT {
				catk = attack.Config{}
			}
			u, c := trainModel(replicas[s.Slot], global, globalBN, s, env.Cfg, catk, cost, true /* full model may swap */)
			return rbnUpdate{u, doAT}, c
		}, func(_ fl.Round, ups []rbnUpdate) {
			var vecs, robustBN [][]float64
			var ws, robustW []float64
			for _, u := range ups {
				vecs = append(vecs, u.vec)
				ws = append(ws, u.weight)
				if u.doAT {
					robustBN = append(robustBN, u.bn)
					robustW = append(robustW, u.weight)
					atClients++
				}
				totalClients++
			}
			global = env.Aggregate(vecs, ws)
			// Robustness propagation: adversarial BN statistics come only
			// from the AT clients; without any this round, keep the
			// previous ones.
			if len(robustBN) > 0 {
				globalBN = env.Aggregate(robustBN, robustW)
			}
		})
	}
	nn.ImportParams(model, global)
	nn.ImportBNStats(model, globalBN)
	run.Extra["at_client_frac"] = 0
	if totalClients > 0 {
		run.Extra["at_client_frac"] = float64(atClients) / float64(totalClients)
	}
	return run.Finish(model, err)
}
