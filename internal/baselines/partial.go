package baselines

import (
	"context"
	"math/rand"

	"fedprophet/internal/fl"
	"fedprophet/internal/memmodel"
	"fedprophet/internal/nn"
	"fedprophet/internal/simlat"
)

// PartialVariant selects the sub-model extraction strategy.
type PartialVariant int

// The three partial-training baselines of Appendix B.2.
const (
	HeteroFL PartialVariant = iota
	FedDrop
	FedRolex
)

// PartialTraining is partial-training federated adversarial training:
// each client adversarially trains a channel-wise sub-model whose size
// matches its memory budget (keep fraction = R_k / Rmax), and the server
// aggregates with element-wise partial averaging. The variant controls
// which channels are extracted (HeteroFL-AT, FedDrop-AT, FedRolex-AT).
type PartialTraining struct {
	Build   func(rng *rand.Rand) *nn.Model
	Variant PartialVariant
}

// Name identifies the method.
func (p *PartialTraining) Name() string {
	switch p.Variant {
	case FedDrop:
		return "FedDrop-AT"
	case FedRolex:
		return "FedRolex-AT"
	default:
		return "HeteroFL-AT"
	}
}

func (p *PartialTraining) picker(round int, rng *rand.Rand) pickFn {
	switch p.Variant {
	case FedDrop:
		return dropPick(rng)
	case FedRolex:
		return rolexPick(round)
	default:
		return heteroPick
	}
}

// ExtractSubModel exposes the channel-wise sub-model extraction used by the
// partial-training baselines, for cost analyses (Figure 2's "Lim. w/o Swap"
// regime trains exactly such a sub-model).
func ExtractSubModel(global *nn.Model, frac float64, variant PartialVariant, round int, rng *rand.Rand) *nn.Model {
	p := &PartialTraining{Variant: variant}
	return extractSub(global, frac, p.picker(round, rng), rng).model
}

// lastLinear finds the final classifier layer of a model (kept at full width
// in every sub-model).
func lastLinear(m *nn.Model) *nn.Linear {
	var last *nn.Linear
	for _, atom := range m.Atoms {
		if seq, ok := atom.(*nn.Sequential); ok {
			for _, l := range seq.Layers {
				if lin, ok := l.(*nn.Linear); ok {
					last = lin
				}
			}
		}
	}
	return last
}

// Run executes the federated rounds.
func (p *PartialTraining) Run(ctx context.Context, env *fl.Env) (*fl.Result, error) {
	global := p.Build(env.Rng)
	fullCost := memmodel.MemReqModel(global, env.Cfg.Batch)
	cal := simlat.NewMemCalibration(env.Fleet.PoolMaxMemGB(), fullCost.TotalBytes)
	res := &fl.Result{Method: p.Name(), Extra: map[string]float64{}}
	atk := env.TrainAttackConfig(env.Cfg.TrainPGD)
	var commBytes int64

	for round := 0; round < env.Cfg.Rounds; round++ {
		r := env.DrawRound(round)

		// Sub-model extraction only reads the global tensors, so clients
		// run concurrently; their updates are scattered back sequentially
		// in sampling order after the pool drains.
		type clientOut struct {
			loss  float64
			sub   *subModel
			lat   simlat.Latency
			bytes int64
		}
		outs := make([]clientOut, len(r.Clients))
		err := fl.ForEachClient(ctx, env.ClientWorkers(), len(r.Clients), r.Seeds, func(slot, i int, crng *rand.Rand) {
			budget := cal.Budget(r.Devices[i].AvailMemGB)
			frac := float64(budget) / float64(fullCost.TotalBytes)
			if frac > 1 {
				frac = 1
			}
			if frac < 0.1 {
				frac = 0.1
			}
			sub := extractSub(global, frac, p.picker(round, crng), crng)
			loss, iters := fl.LocalTrain(sub.model, env.Subsets[r.Clients[i]], env.Cfg, r.LR, atk, crng)
			subCost := memmodel.MemReqModel(sub.model, env.Cfg.Batch)
			w := clientWork(subCost.ForwardFLOPs, subCost.TotalBytes, budget,
				iters, env.Cfg.Batch, atk.Steps, false /* sub-model avoids swapping */)
			outs[i] = clientOut{loss, sub, simlat.ClientLatency(w, r.Devices[i]),
				int64(4 * (nn.NumParams(sub.model) + len(nn.ExportBNStats(sub.model))))}
		})
		if err != nil {
			res.Model = global
			return res, fl.PartialProgress(err, round)
		}

		acc := newAccumulator()
		var lats []simlat.Latency
		roundLoss := 0.0
		for i, o := range outs {
			o.sub.scatter(acc, float64(env.Subsets[r.Clients[i]].Len()))
			lats = append(lats, o.lat)
			roundLoss += o.loss
			commBytes += o.bytes
		}
		acc.apply()
		env.Record(res, lats, fl.RoundMetrics{Round: round, Loss: roundLoss / float64(len(r.Clients))})
	}
	res.Extra["mem_full_bytes"] = float64(fullCost.TotalBytes)
	res.Extra["comm_up_bytes"] = float64(commBytes)
	return finishResult(res, global, env), nil
}
