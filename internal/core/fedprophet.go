package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"fedprophet/internal/attack"
	"fedprophet/internal/cascade"
	"fedprophet/internal/data"
	"fedprophet/internal/fl"
	"fedprophet/internal/memmodel"
	"fedprophet/internal/nn"
	"fedprophet/internal/quant"
	"fedprophet/internal/simlat"
	"fedprophet/internal/tensor"
)

// Options configures FedProphet beyond the shared fl.Config.
type Options struct {
	// Build constructs the backbone model.
	Build func(rng *rand.Rand) *nn.Model
	// RminFrac sets the minimal reserved memory as a fraction of the
	// full-model training requirement (0.2 in the paper).
	RminFrac float64
	// RoundsPerModule caps the communication rounds spent per module; the
	// paper uses 500 with early stopping.
	RoundsPerModule int
	// Patience stops a module stage early when validation adversarial
	// accuracy has not improved for this many rounds (50 in the paper).
	Patience int
	// Mu is the strong-convexity regularization coefficient (Eq. 9).
	Mu float64
	// AlphaInit, DeltaAlpha, GammaThresh parameterize APA (§6.2).
	AlphaInit, DeltaAlpha, GammaThresh float64
	// UseAPA / UseDMA toggle the coordinator components (Table 3 ablation).
	UseAPA, UseDMA bool
	// FeaturePGDSteps is the PGD iteration count for intermediate-feature
	// attacks during cascade training.
	FeaturePGDSteps int
	// ValSize / ValPGD control the cheap per-round validation used by APA.
	ValSize, ValPGD int
	// UploadBits, when in [2,8], quantizes client module uploads with
	// symmetric low-bit quantization before partial averaging — the
	// parameter-level compression §8 describes as complementary to module
	// partitioning. 0 disables quantization.
	UploadBits int
	// UploadChunk is the number of values per quantization scale of an
	// upload (0 selects quant.DefaultChunk), matching the distributed wire
	// codec; comm-bytes accounting charges the codec's true frame size.
	UploadChunk int
}

// DefaultOptions returns the paper's coordinator hyperparameters.
func DefaultOptions(build func(rng *rand.Rand) *nn.Model) Options {
	return Options{
		Build:           build,
		RminFrac:        0.2,
		RoundsPerModule: 12,
		Patience:        6,
		Mu:              1e-5,
		AlphaInit:       0.3,
		DeltaAlpha:      0.1,
		GammaThresh:     0.05,
		UseAPA:          true,
		UseDMA:          true,
		FeaturePGDSteps: 5,
		ValSize:         48,
		ValPGD:          5,
	}
}

// FedProphet is the full method of Algorithm 2.
type FedProphet struct {
	Opts Options
}

// New constructs FedProphet with the given options.
func New(opts Options) *FedProphet { return &FedProphet{Opts: opts} }

// Name identifies the method.
func (f *FedProphet) Name() string { return "FedProphet" }

// Run executes Algorithm 2 and evaluates the final backbone.
func (f *FedProphet) Run(ctx context.Context, env *fl.Env) (*fl.Result, error) {
	o := f.Opts
	rng := env.Rng
	for k, sub := range env.Subsets {
		if sub.Parent != env.Train {
			return nil, fmt.Errorf("core: client %d's subset does not index env.Train", k)
		}
	}
	// Every worker slot owns a structurally identical (model, cascade)
	// replica built from the same seeds; clients load the global module
	// stores into their slot's replica, so a round's clients train
	// concurrently without sharing mutable state.
	modelSeed := rng.Int63()
	partSeed := rng.Int63()
	build := func() (*nn.Model, *cascade.Cascade, memmodel.Costs) {
		m := o.Build(rand.New(rand.NewSource(modelSeed)))
		cost := memmodel.MemReqModel(m, env.Cfg.Batch)
		rmin := int64(o.RminFrac * float64(cost.TotalBytes))
		return m, cascade.Partition(m, rmin, env.Cfg.Batch, rand.New(rand.NewSource(partSeed))), cost
	}
	workers := env.ClientWorkers()
	cascs := make([]*cascade.Cascade, workers)
	var fullCost memmodel.Costs
	for s := range cascs {
		_, cascs[s], fullCost = build()
	}
	casc := cascs[0] // server-side view: validation, perturbation collection, final eval
	cal := simlat.NewMemCalibration(env.Fleet.PoolMaxMemGB(), fullCost.TotalBytes)

	res := &fl.Result{Method: f.Name(), Extra: map[string]float64{}}
	valSample := fl.SampleDataset(env.Val, o.ValSize, rng)

	// Per-module global parameter stores (weights, aux heads, BN stats).
	globalBackbone := map[int][]float64{}
	globalAux := map[int][]float64{}
	globalBN := map[int][]float64{}
	for i, m := range casc.Modules {
		globalBackbone[i] = nn.ExportParamList(m.BackboneParams())
		globalBN[i] = m.BNStats()
		if m.Aux != nil {
			globalAux[i] = nn.ExportParamList(m.Aux.Params())
		}
	}
	loadGlobalsInto := func(c *cascade.Cascade) {
		for i, m := range c.Modules {
			nn.ImportParamList(m.BackboneParams(), globalBackbone[i])
			m.SetBNStats(globalBN[i])
			if m.Aux != nil {
				nn.ImportParamList(m.Aux.Params(), globalAux[i])
			}
		}
	}

	globalRound := 0
	basePert := 0.0  // E[max‖Δz_{m-1}‖] from the previous stage
	prevRatio := 0.0 // C*/A* of the previous stage
	var commBytes int64

	finishPartial := func(err error) (*fl.Result, error) {
		loadGlobalsInto(casc)
		res.Model = casc.Full()
		res.Extra["rounds"] = float64(globalRound)
		return res, fl.PartialProgress(err, globalRound)
	}

	// stageSet is the frozen-prefix feature set of the current stage: X[i] is
	// z_{m-1} of training sample i. Modules 0..m-1 are fixed for the whole
	// stage and run in eval mode, so z_{m-1} is a constant of the stage: the
	// server-side cascade, which holds the final globals of stage m-1 here,
	// maps the previous stage's set through module m-1 once, and every client
	// batch of the stage reads its rows instead of re-running the prefix.
	stageSet := env.Train
	for mIdx := range casc.Modules {
		if mIdx > 0 {
			stageSet = casc.Modules[mIdx-1].MapFeatures(stageSet, env.Cfg.EvalBatch)
		}
		prefixFwd := casc.PrefixForwardFLOPs(mIdx)
		apa := NewAPAState(o.AlphaInit, o.DeltaAlpha, o.GammaThresh, basePert, prevRatio, o.UseAPA && mIdx > 0)
		bestAdv, bestClean, sincImprove := -1.0, 0.0, 0

		for local := 0; local < o.RoundsPerModule; local++ {
			if err := ctx.Err(); err != nil {
				return finishPartial(err)
			}
			// Module 0 trains against the pluggable input-space attack
			// (PGD by default; fl.NoAttack or TrainPGD = 0 trains cleanly).
			// Later modules use the feature-space PGD intrinsic to cascade
			// learning, disabled alongside input adversarial training.
			var atkCfg attack.Config
			var epsNow float64
			if mIdx == 0 {
				atkCfg = env.TrainAttackConfig(env.Cfg.TrainPGD)
				epsNow = atkCfg.Eps
			} else {
				epsNow = apa.Eps()
				featSteps := o.FeaturePGDSteps
				if env.Cfg.TrainPGD <= 0 {
					featSteps = 0
				}
				atkCfg = attack.FeaturePGDConfig(epsNow, featSteps)
			}

			r := env.DrawRound(globalRound)
			perfMin := math.Inf(1)
			for _, s := range r.Devices {
				perfMin = math.Min(perfMin, s.AvailPerf)
			}

			type modVec struct {
				j     int
				vec   []float64
				bytes int64
			}
			type clientOut struct {
				loss     float64
				lossN    int
				weight   float64
				backbone []modVec
				bn       []modVec
				aux      *modVec
				lat      simlat.Latency
			}
			outs := make([]clientOut, len(r.Clients))
			err := fl.ForEachClient(ctx, workers, len(r.Clients), r.Seeds, func(slot, i int, crng *rand.Rand) {
				c := cascs[slot]
				loadGlobalsInto(c)
				budget := cal.Budget(r.Devices[i].AvailMemGB)
				to := AssignModules(c, mIdx, budget, r.Devices[i].AvailPerf, perfMin, o.UseDMA)
				opt := nn.NewSGD(r.LR, env.Cfg.Momentum, env.Cfg.WeightDecay)
				nn.ResetMomentum(c.RangeParams(mIdx, to))

				out := &outs[i]
				sub := env.Subsets[r.Clients[i]]
				batches := data.Batches(sub.Indices, env.Cfg.Batch, crng)
				iters := 0
				for iters < env.Cfg.LocalIters && len(batches) > 0 {
					for _, b := range batches {
						if iters >= env.Cfg.LocalIters {
							break
						}
						z, y := data.Batch(stageSet, b)
						out.loss += c.AdversarialStep(z, y, mIdx, to, atkCfg, o.Mu, opt, crng)
						out.lossN++
						iters++
					}
				}

				out.weight = float64(sub.Len())
				for j := mIdx; j <= to; j++ {
					vec, bytes := f.encodeUpload(nn.ExportParamList(c.Modules[j].BackboneParams()))
					out.backbone = append(out.backbone, modVec{j, vec, bytes})
					bn := c.Modules[j].BNStats()
					out.bn = append(out.bn, modVec{j, bn, int64(4 * len(bn))})
				}
				if aux := c.Modules[to].Aux; aux != nil {
					vec, bytes := f.encodeUpload(nn.ExportParamList(aux.Params()))
					out.aux = &modVec{to, vec, bytes}
				}

				// Latency accounting: a simulated device holds no feature set,
				// so it is still charged the prefix forward once per batch, as
				// in the paper; the assigned range runs PGD attack passes plus
				// the training pass.
				rangeFwd := c.RangeForwardFLOPs(mIdx, to)
				flops := int64(iters) * (prefixFwd*int64(env.Cfg.Batch) +
					memmodel.TrainingFLOPs(rangeFwd, env.Cfg.Batch, atkSteps(atkCfg)))
				out.lat = simlat.ClientLatency(simlat.Work{
					FLOPs:     flops,
					MemReq:    c.RangeMemReq(mIdx, to),
					MemBudget: budget,
					Passes:    int64(iters) * simlat.PassesPerBatch(atkSteps(atkCfg)),
					Swap:      false, // DMA never exceeds the budget
				}, r.Devices[i])
			})
			if err != nil {
				return finishPartial(err)
			}

			updates := map[int][]moduleUpdate{}
			auxUpdates := map[int][]moduleUpdate{}
			bnUpdates := map[int][]moduleUpdate{}
			var lats []simlat.Latency
			roundLoss, lossN := 0.0, 0
			for i := range outs {
				out := &outs[i]
				for _, mv := range out.backbone {
					updates[mv.j] = append(updates[mv.j], moduleUpdate{vec: mv.vec, weight: out.weight})
					commBytes += mv.bytes
				}
				for _, mv := range out.bn {
					bnUpdates[mv.j] = append(bnUpdates[mv.j], moduleUpdate{vec: mv.vec, weight: out.weight})
					commBytes += mv.bytes
				}
				if out.aux != nil {
					auxUpdates[out.aux.j] = append(auxUpdates[out.aux.j], moduleUpdate{vec: out.aux.vec, weight: out.weight})
					commBytes += out.aux.bytes
				}
				roundLoss += out.loss
				lossN += out.lossN
				lats = append(lats, out.lat)
			}

			globalBackbone = partialAverage(mergeFixed(updates, globalBackbone), globalBackbone, env.Aggregate)
			globalAux = partialAverage(mergeFixed(auxUpdates, globalAux), globalAux, env.Aggregate)
			globalBN = partialAverage(mergeFixed(bnUpdates, globalBN), globalBN, env.Aggregate)
			loadGlobalsInto(casc)

			// Validation of the cascaded modules for APA and early stopping.
			comp := casc.Composite(mIdx)
			cAcc := attack.CleanAccuracy(comp, valSample, env.Cfg.EvalBatch)
			aAcc := attack.AdvAccuracy(comp, valSample, env.Cfg.EvalBatch,
				attack.PGDConfig(env.Cfg.Eps, o.ValPGD), rng)
			apa.Update(cAcc, aAcc)

			avgLoss := 0.0
			if lossN > 0 {
				avgLoss = roundLoss / float64(lossN)
			}
			env.Record(res, lats, fl.RoundMetrics{
				Round:      globalRound,
				Loss:       avgLoss,
				PerDimPert: perDimPert(epsNow, casc.Modules[mIdx].InShape, mIdx),
				Module:     mIdx,
			})
			globalRound++

			if aAcc > bestAdv {
				bestAdv, bestClean, sincImprove = aAcc, cAcc, 0
			} else {
				sincImprove++
				if sincImprove >= o.Patience {
					break
				}
			}
		}

		// Fix module mIdx; collect E[max‖Δz_m‖] for the next stage (Eq. 11)
		// and record C*/A*.
		if bestAdv > 0 {
			prevRatio = bestClean / bestAdv
		} else {
			prevRatio = 0
		}
		if mIdx < len(casc.Modules)-1 {
			basePert = f.collectOutputPerturbation(env, casc, mIdx, apaEpsOrInput(apa, env.Cfg, mIdx), rng)
			if basePert <= 0 {
				basePert = 0.1
			}
			if mIdx == 0 {
				// d*_1 = E[max‖Δz_1‖], the quantity plotted in Figure 8.
				res.Extra["pert_z1"] = basePert
			}
		}
	}

	clean, pgd, aa := fl.Evaluate(casc.Full(), env.Test, env.Cfg, rng)
	res.CleanAcc, res.PGDAcc, res.AAAcc = clean, pgd, aa
	res.Model = casc.Full()
	res.Extra["modules"] = float64(len(casc.Modules))
	maxMod := int64(0)
	for i := range casc.Modules {
		if r := casc.ModuleMemReq(i); r > maxMod {
			maxMod = r
		}
	}
	res.Extra["mem_full_bytes"] = float64(fullCost.TotalBytes)
	res.Extra["mem_module_bytes"] = float64(maxMod)
	res.Extra["mem_reduction"] = 1 - float64(maxMod)/float64(fullCost.TotalBytes)
	res.Extra["rounds"] = float64(globalRound)
	res.Extra["comm_up_bytes"] = float64(commBytes)
	return res, nil
}

// encodeUpload applies the optional low-bit quantization to one upload
// vector, returning the (possibly lossy) vector the server will aggregate
// and its wire size in bytes: the wire codec's dense frame, one scale per
// UploadChunk values (quant.DefaultChunk when unset), which confines each
// outlier weight's damage to its own chunk.
func (f *FedProphet) encodeUpload(vec []float64) ([]float64, int64) {
	if f.Opts.UploadBits < 2 || f.Opts.UploadBits > 8 {
		return vec, int64(4 * len(vec))
	}
	chunk := f.Opts.UploadChunk
	if chunk <= 0 {
		chunk = quant.DefaultChunk
	}
	deq := make([]float64, len(vec))
	frame := quant.NewEncoder(f.Opts.UploadBits, chunk, len(vec), 1).EncodeAll(vec, deq)
	return deq, int64(len(frame))
}

// atkSteps reports the PGD step count of a configured attack.
func atkSteps(cfg attack.Config) int { return cfg.Steps }

// apaEpsOrInput returns the constraint used on module mIdx's input when
// measuring its output perturbation: ε0 for the first module, the APA ε for
// later ones.
func apaEpsOrInput(apa *APAState, cfg fl.Config, mIdx int) attack.Config {
	if mIdx == 0 {
		return attack.PGDConfig(cfg.Eps, 5)
	}
	return attack.FeaturePGDConfig(apa.Eps(), 5)
}

// collectOutputPerturbation estimates E[max‖Δz_m‖] on validation batches,
// standing in for the client-side collection of Algorithm 2.
func (f *FedProphet) collectOutputPerturbation(env *fl.Env, casc *cascade.Cascade, mIdx int, atkCfg attack.Config, rng *rand.Rand) float64 {
	sample := fl.SampleDataset(env.Val, 32, rng)
	if sample.Len() < 2 {
		return 0
	}
	idx := make([]int, sample.Len())
	for i := range idx {
		idx[i] = i
	}
	x, _ := data.Batch(sample, idx)
	var zin *tensor.Tensor = casc.ForwardPrefix(x, mIdx)
	return casc.MaxOutputPerturbation(zin, mIdx, atkCfg, rng)
}

// perDimPert converts an ε constraint into the per-dimension magnitude
// plotted in Figure 10: ℓ∞ radii are already per-dimension; ℓ2 radii are
// divided by √d.
func perDimPert(eps float64, inShape []int, mIdx int) float64 {
	if mIdx == 0 {
		return eps
	}
	d := 1
	for _, s := range inShape {
		d *= s
	}
	return eps / math.Sqrt(float64(d))
}

// mergeFixed ensures every module key in prev exists in updates so that
// partialAverage preserves untouched modules.
func mergeFixed(updates map[int][]moduleUpdate, prev map[int][]float64) map[int][]moduleUpdate {
	for n := range prev {
		if _, ok := updates[n]; !ok {
			updates[n] = nil
		}
	}
	return updates
}
