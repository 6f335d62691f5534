package fl

import (
	"math"
	"math/rand"

	"fedprophet/internal/attack"
	"fedprophet/internal/data"
	"fedprophet/internal/device"
	"fedprophet/internal/nn"
)

// Round is one round's schedule: the sampled cohort in sampling order, one
// training seed and one device snapshot per sampled client, and the round's
// learning rate.
type Round struct {
	Clients []int
	Seeds   []int64
	Devices []device.Snapshot
	LR      float64 // ηt = γ^t·η0
}

// DrawRound draws round t's schedule from e.Rng in the one fixed order every
// method uses — cohort (Sample), then the per-client seeds (RoundSeeds), then
// each client's device snapshot in sampling order — so a seeded run, in
// process or replayed over the wire, sees the same schedule.
func (e *Env) DrawRound(t int) Round {
	clients := e.Sample(e.Rng)
	r := Round{
		Clients: clients,
		Seeds:   RoundSeeds(e.Rng, len(clients)),
		Devices: make([]device.Snapshot, len(clients)),
		LR:      e.Cfg.LR * math.Pow(e.Cfg.LRDecay, float64(t)),
	}
	for i, k := range clients {
		r.Devices[i] = e.Fleet.Snapshot(k, e.Rng)
	}
	return r
}

// LocalTrain is a client's local step: cfg.LocalIters iterations of
// (adversarially) perturbed SGD on model over the client subset, cycling
// through one shuffled pass of batches. It reports the mean training loss
// (0 when no iteration ran) and the number of iterations executed. A
// zero-step attack config selects standard training.
func LocalTrain(model nn.Layer, sub *data.Subset, cfg Config, lr float64, atk attack.Config, rng *rand.Rand) (float64, int) {
	opt := nn.NewSGD(lr, cfg.Momentum, cfg.WeightDecay)
	nn.ResetMomentum(model.Params())
	batches := data.Batches(sub.Indices, cfg.Batch, rng)
	totalLoss, iters := 0.0, 0
	for iters < cfg.LocalIters && len(batches) > 0 {
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
	if iters == 0 {
		return 0, 0
	}
	return totalLoss / float64(iters), iters
}
