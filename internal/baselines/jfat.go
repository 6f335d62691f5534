package baselines

import (
	"context"
	"math/rand"

	"fedprophet/internal/fl"
	"fedprophet/internal/memmodel"
	"fedprophet/internal/nn"
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
	replicas := buildReplicas(j.Build, env.ClientWorkers(), env.Rng.Int63())
	model := replicas[0]
	cost := memmodel.MemReqModel(model, env.Cfg.Batch)
	run := env.Start(j.Name(), cost.TotalBytes)
	atk := env.TrainAttackConfig()

	global, globalBN := nn.ExportParams(model), nn.ExportBNStats(model)
	var err error
	for round := 0; round < env.Cfg.Rounds && err == nil; round++ {
		err = fl.TrainRound(ctx, run, round, fl.RoundMetrics{}, func(s fl.Seat) (update, fl.Client) {
			return trainModel(replicas[s.Slot], global, globalBN, s, env.Cfg, atk, cost, true /* swap when constrained */)
		}, func(_ fl.Round, ups []update) {
			global, globalBN = average(env, ups)
		})
	}
	nn.ImportParams(model, global)
	nn.ImportBNStats(model, globalBN)
	return run.Finish(model, err)
}
