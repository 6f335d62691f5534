package baselines

import (
	"context"
	"math/rand"

	"fedprophet/internal/fl"
	"fedprophet/internal/memmodel"
	"fedprophet/internal/nn"
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
	run := env.Start(p.Name(), fullCost.TotalBytes)
	atk := env.TrainAttackConfig()

	type subUpdate struct {
		sub    *subModel
		weight float64
	}
	var err error
	for round := 0; round < env.Cfg.Rounds && err == nil; round++ {
		// Sub-model extraction only reads the global tensors, so clients
		// run concurrently; their updates are scattered back sequentially
		// in sampling order by the fold.
		err = fl.TrainRound(ctx, run, round, fl.RoundMetrics{}, func(s fl.Seat) (subUpdate, fl.Client) {
			frac := min(max(float64(s.Budget)/float64(fullCost.TotalBytes), 0.1), 1)
			sub := extractSub(global, frac, p.picker(round, s.Rng), s.Rng)
			loss, iters := fl.LocalTrain(sub.model, s.Data, env.Cfg, s.Round.LR, atk, s.Rng)
			subCost := memmodel.MemReqModel(sub.model, env.Cfg.Batch)
			return subUpdate{sub, float64(s.Data.Len())}, fl.Client{
				Loss:  loss,
				Iters: iters,
				Work: clientWork(subCost.ForwardFLOPs, subCost.TotalBytes, s.Budget,
					iters, env.Cfg.Batch, atk.Steps, false /* sub-model avoids swapping */),
				UpBytes: int64(4 * (nn.NumParams(sub.model) + len(nn.ExportBNStats(sub.model)))),
			}
		}, func(_ fl.Round, ups []subUpdate) {
			acc := newAccumulator()
			for _, u := range ups {
				u.sub.scatter(acc, u.weight)
			}
			acc.apply()
		})
	}
	return run.Finish(global, err)
}
