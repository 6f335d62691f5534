package baselines

import (
	"context"
	"math/rand"

	"fedprophet/internal/attack"
	"fedprophet/internal/data"
	"fedprophet/internal/fl"
	"fedprophet/internal/memmodel"
	"fedprophet/internal/nn"
	"fedprophet/internal/simlat"
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
	// DistillIters is the number of server-side distillation steps per
	// round (128 in the paper; scaled down with everything else here).
	DistillIters int
}

// Name identifies the method.
func (k *KDTraining) Name() string {
	if k.Variant == FedET {
		return "FedET-AT"
	}
	return "FedDF-AT"
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
	big := models[len(models)-1]
	cal := simlat.NewMemCalibration(env.Fleet.PoolMaxMemGB(), costs[len(costs)-1].TotalBytes)
	res := &fl.Result{Method: k.Name(), Extra: map[string]float64{}}
	atk := env.TrainAttackConfig(env.Cfg.TrainPGD)

	globals := make([][]float64, len(models))
	globalsBN := make([][]float64, len(models))
	for i, m := range models {
		globals[i] = nn.ExportParams(m)
		globalsBN[i] = nn.ExportBNStats(m)
	}
	distillIters := k.DistillIters
	if distillIters <= 0 {
		distillIters = 16
	}
	var commBytes int64

	for round := 0; round < env.Cfg.Rounds; round++ {
		r := env.DrawRound(round)

		type clientOut struct {
			pick  int
			loss  float64
			vec   []float64
			bn    []float64
			lat   simlat.Latency
			bytes int64
		}
		outs := make([]clientOut, len(r.Clients))
		err := fl.ForEachClient(ctx, env.ClientWorkers(), len(r.Clients), r.Seeds, func(slot, i int, crng *rand.Rand) {
			budget := cal.Budget(r.Devices[i].AvailMemGB)
			// Largest family member that fits.
			pick := 0
			for j := range models {
				if costs[j].TotalBytes <= budget {
					pick = j
				}
			}
			m := replicas[slot][pick]
			nn.ImportParams(m, globals[pick])
			nn.ImportBNStats(m, globalsBN[pick])
			loss, iters := fl.LocalTrain(m, env.Subsets[r.Clients[i]], env.Cfg, r.LR, atk, crng)
			vec := nn.ExportParams(m)
			bn := nn.ExportBNStats(m)
			w := clientWork(costs[pick].ForwardFLOPs, costs[pick].TotalBytes, budget,
				iters, env.Cfg.Batch, atk.Steps, false)
			outs[i] = clientOut{pick, loss, vec, bn, simlat.ClientLatency(w, r.Devices[i]),
				int64(4 * (len(vec) + len(bn)))}
		})
		if err != nil {
			res.Model = big
			return res, fl.PartialProgress(err, round)
		}

		vecs := make([][][]float64, len(models))
		bnVecs := make([][][]float64, len(models))
		weights := make([][]float64, len(models))
		var lats []simlat.Latency
		roundLoss := 0.0
		for i, o := range outs {
			vecs[o.pick] = append(vecs[o.pick], o.vec)
			bnVecs[o.pick] = append(bnVecs[o.pick], o.bn)
			weights[o.pick] = append(weights[o.pick], float64(env.Subsets[r.Clients[i]].Len()))
			lats = append(lats, o.lat)
			roundLoss += o.loss
			commBytes += o.bytes
		}

		// FedAvg within each architecture family.
		for i := range models {
			if len(vecs[i]) > 0 {
				globals[i] = env.Aggregate(vecs[i], weights[i])
				globalsBN[i] = env.Aggregate(bnVecs[i], weights[i])
			}
			nn.ImportParams(models[i], globals[i])
			nn.ImportBNStats(models[i], globalsBN[i])
		}

		// Server-side ensemble distillation into the big model.
		k.distill(models, big, env, distillIters, r.LR, rng)
		globals[len(globals)-1] = nn.ExportParams(big)
		globalsBN[len(globalsBN)-1] = nn.ExportBNStats(big)

		env.Record(res, lats, fl.RoundMetrics{Round: round, Loss: roundLoss / float64(len(r.Clients))})
	}
	nn.ImportParams(big, globals[len(globals)-1])
	nn.ImportBNStats(big, globalsBN[len(globalsBN)-1])
	res.Extra["mem_full_bytes"] = float64(costs[len(costs)-1].TotalBytes)
	res.Extra["comm_up_bytes"] = float64(commBytes)
	return finishResult(res, big, env), nil
}

// distill runs server-side knowledge distillation of the family ensemble
// into the big model on the public dataset.
func (k *KDTraining) distill(models []*nn.Model, big *nn.Model, env *fl.Env, iters int, lr float64, rng *rand.Rand) {
	if env.Public == nil || env.Public.Len() < 2 {
		return
	}
	opt := nn.NewSGD(lr, env.Cfg.Momentum, 0)
	nn.ResetMomentum(big.Params())
	idx := make([]int, env.Public.Len())
	for i := range idx {
		idx[i] = i
	}
	batches := data.Batches(idx, env.Cfg.Batch, rng)
	done := 0
	for done < iters {
		for _, b := range batches {
			if done >= iters {
				break
			}
			x, y := data.Batch(env.Public, b)
			if k.Variant == FedET {
				// FedET transfers robustness by distilling on perturbed
				// public data as well.
				if done%2 == 1 {
					x = attack.Perturb(attack.PGDConfig(env.Cfg.Eps, 3), x,
						attack.CEGradFn(big, y), rng)
				}
			}
			teacher := k.ensembleProbs(models, x)
			out := big.Forward(x, true)
			_, g := nn.KLDivergence(out, teacher)
			nn.ZeroGrads(big)
			big.Backward(g)
			opt.Step(big.Params())
			done++
		}
		if len(batches) == 0 {
			break
		}
	}
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
