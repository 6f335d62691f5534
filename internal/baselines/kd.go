package baselines

import (
	"context"
	"math/rand"

	"fedprophet/internal/attack"
	"fedprophet/internal/data"
	"fedprophet/internal/fl"
	"fedprophet/internal/memmodel"
	"fedprophet/internal/nn"
	"fedprophet/internal/tensor"
)

// KDVariant selects the knowledge-distillation aggregation flavour.
type KDVariant int

// The two knowledge-distillation baselines of Appendix B.2.
const (
	// FedDF (Lin et al. 2020): ensemble distillation with uniformly
	// averaged teacher probabilities on a public dataset.
	FedDF KDVariant = iota
	// FedET (Cho et al. 2022): heterogeneous ensemble knowledge transfer
	// with confidence-weighted teachers, distilling on both clean and
	// adversarially perturbed public data.
	FedET
)

// KDTraining is knowledge-distillation federated adversarial training: each
// client adversarially trains the largest model of a fixed architecture
// group that fits its memory budget; the server federated-averages within
// each architecture family and then distills the family ensemble into the
// large global model on a small public dataset.
type KDTraining struct {
	// Group builds the architecture family, ordered small → large; the last
	// entry is the reported global model ({CNN3, VGG11, VGG13, VGG16} on
	// CIFAR-10, {CNN4, ResNet10, ResNet18, ResNet34} on Caltech-256).
	Group   []func(rng *rand.Rand) *nn.Model
	Variant KDVariant
}

// Name identifies the method.
func (k *KDTraining) Name() string {
	if k.Variant == FedET {
		return "FedET-AT"
	}
	return "FedDF-AT"
}

// kdUpdate is a client's upload of the family member it trained.
type kdUpdate struct {
	update
	pick int
}

// Run executes the federated rounds.
func (k *KDTraining) Run(ctx context.Context, env *fl.Env) (*fl.Result, error) {
	rng := env.Rng
	models := make([]*nn.Model, len(k.Group))
	costs := make([]memmodel.Costs, len(k.Group))
	for i, build := range k.Group {
		models[i] = build(rng)
		costs[i] = memmodel.MemReqModel(models[i], env.Cfg.Batch)
	}
	// Per worker slot, one replica of every family member, all built from
	// the same seed so the families agree structurally across slots.
	replicaSeed := rng.Int63()
	replicas := make([][]*nn.Model, env.ClientWorkers())
	for s := range replicas {
		replicas[s] = make([]*nn.Model, len(k.Group))
		for i, build := range k.Group {
			replicas[s][i] = build(rand.New(rand.NewSource(replicaSeed)))
		}
	}
	last := len(models) - 1
	big := models[last]
	run := env.Start(k.Name(), costs[last].TotalBytes)
	atk := env.TrainAttackConfig()

	globals := make([][]float64, len(models))
	globalsBN := make([][]float64, len(models))
	for i, m := range models {
		globals[i] = nn.ExportParams(m)
		globalsBN[i] = nn.ExportBNStats(m)
	}

	var err error
	for round := 0; round < env.Cfg.Rounds && err == nil; round++ {
		err = fl.TrainRound(ctx, run, round, fl.RoundMetrics{}, func(s fl.Seat) (kdUpdate, fl.Client) {
			// Largest family member that fits.
			pick := 0
			for j := range models {
				if costs[j].TotalBytes <= s.Budget {
					pick = j
				}
			}
			u, c := trainModel(replicas[s.Slot][pick], globals[pick], globalsBN[pick], s, env.Cfg, atk, costs[pick], false)
			return kdUpdate{u, pick}, c
		}, func(r fl.Round, ups []kdUpdate) {
			// FedAvg within each architecture family.
			family := make([][]update, len(models))
			for _, u := range ups {
				family[u.pick] = append(family[u.pick], u.update)
			}
			for i, m := range models {
				if len(family[i]) > 0 {
					globals[i], globalsBN[i] = average(env, family[i])
				}
				nn.ImportParams(m, globals[i])
				nn.ImportBNStats(m, globalsBN[i])
			}
			// Server-side ensemble distillation into the big model.
			k.distill(models, big, env, r.LR, rng)
			globals[last], globalsBN[last] = nn.ExportParams(big), nn.ExportBNStats(big)
		})
	}
	nn.ImportParams(big, globals[last])
	nn.ImportBNStats(big, globalsBN[last])
	return run.Finish(big, err)
}

// distill runs server-side knowledge distillation of the family ensemble
// into the big model on the public dataset, for 2·LocalIters steps (128 in
// the paper; scaled down with the local budget here).
func (k *KDTraining) distill(models []*nn.Model, big *nn.Model, env *fl.Env, lr float64, rng *rand.Rand) {
	if env.Public == nil || env.Public.Len() < 2 {
		return
	}
	opt := nn.NewSGD(lr, env.Cfg.Momentum, 0)
	nn.ResetMomentum(big.Params())
	idx := make([]int, env.Public.Len())
	for i := range idx {
		idx[i] = i
	}
	fl.CycleBatches(idx, env.Cfg.Batch, 2*env.Cfg.LocalIters, rng, func(it int, b []int) float64 {
		x, y := data.Batch(env.Public, b)
		// FedET transfers robustness by distilling on perturbed public data
		// as well.
		if k.Variant == FedET && it%2 == 1 {
			x = attack.Perturb(attack.PGDConfig(env.Cfg.Eps, 3), x, attack.CEGradFn(big, y), rng)
		}
		teacher := k.ensembleProbs(models, x)
		out := big.Forward(x, true)
		loss, g := nn.KLDivergence(out, teacher)
		nn.ZeroGrads(big)
		big.Backward(g)
		opt.Step(big.Params())
		return loss
	})
}

// ensembleProbs combines the family models' predictions: uniform averaging
// for FedDF, confidence-weighted averaging for FedET.
func (k *KDTraining) ensembleProbs(models []*nn.Model, x *tensor.Tensor) *tensor.Tensor {
	bsz := x.Dim(0)
	var probs []*tensor.Tensor
	for _, m := range models {
		probs = append(probs, nn.Softmax(m.Forward(x, false)))
	}
	classes := probs[0].Dim(1)
	out := tensor.New(bsz, classes)
	for b := 0; b < bsz; b++ {
		totalW := 0.0
		for _, p := range probs {
			w := 1.0
			if k.Variant == FedET {
				// Confidence weight: the teacher's max probability.
				maxp := 0.0
				for j := 0; j < classes; j++ {
					if v := p.At(b, j); v > maxp {
						maxp = v
					}
				}
				w = maxp
			}
			totalW += w
			for j := 0; j < classes; j++ {
				out.Data[b*classes+j] += w * p.At(b, j)
			}
		}
		for j := 0; j < classes; j++ {
			out.Data[b*classes+j] /= totalW
		}
	}
	return out
}
