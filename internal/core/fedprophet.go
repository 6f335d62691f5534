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
	"fedprophet/internal/simlat"
)

// FedProphet is the full method of Algorithm 2. Params.BuildLarge builds the
// backbone; every coordinator knob of Params is read as given.
type FedProphet struct {
	Params fl.MethodParams
}

// New constructs FedProphet from the registry's method parameters.
func New(p fl.MethodParams) *FedProphet { return &FedProphet{Params: p} }

// Name identifies the method.
func (f *FedProphet) Name() string { return "FedProphet" }

// Run executes Algorithm 2 and evaluates the final backbone.
func (f *FedProphet) Run(ctx context.Context, env *fl.Env) (*fl.Result, error) {
	p := f.Params
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
		m := p.BuildLarge(rand.New(rand.NewSource(modelSeed)))
		cost := memmodel.MemReqModel(m, env.Cfg.Batch)
		rmin := int64(p.RminFrac * float64(cost.TotalBytes))
		return m, cascade.Partition(m, rmin, env.Cfg.Batch, rand.New(rand.NewSource(partSeed))), cost
	}
	workers := env.ClientWorkers()
	cascs := make([]*cascade.Cascade, workers)
	var fullCost memmodel.Costs
	for s := range cascs {
		_, cascs[s], fullCost = build()
	}
	// Server-side view: cascs[0] holds the globals for the final evaluation.
	// The per-round server passes — validation, the stage feature map and the
	// output-perturbation collection — run on every slot replica, each
	// loaded with the globals by the fold, through one nn.Replicas that
	// splits their eval-mode batches across the replicas.
	casc := cascs[0]
	onReplicas := func(layer func(c *cascade.Cascade) nn.Layer) nn.Layer {
		ls := make([]nn.Layer, len(cascs))
		for s, c := range cascs {
			ls[s] = layer(c)
		}
		return nn.NewReplicas(ls...)
	}
	run := env.Start(f.Name(), fullCost.TotalBytes)
	valSample := fl.SampleDataset(env.Val, p.ValSize, rng)

	// Per-module global parameter stores (weights, aux heads, BN stats).
	globalBackbone := map[int][]float64{}
	globalAux := map[int][]float64{}
	globalBN := map[int][]float64{}
	for i, m := range casc.Modules {
		globalBackbone[i] = nn.ExportParamList(m.BackboneParams())
		globalBN[i] = nn.ExportBNStats(m.Backbone)
		if m.Aux != nil {
			globalAux[i] = nn.ExportParamList(m.Aux.Params())
		}
	}
	loadGlobalsInto := func(c *cascade.Cascade) {
		for i, m := range c.Modules {
			nn.ImportParamList(m.BackboneParams(), globalBackbone[i])
			nn.ImportBNStats(m.Backbone, globalBN[i])
			if m.Aux != nil {
				nn.ImportParamList(m.Aux.Params(), globalAux[i])
			}
		}
	}
	finish := func(err error) (*fl.Result, error) {
		loadGlobalsInto(casc)
		run.Extra["rounds"] = float64(len(run.History))
		return run.Finish(casc.Full(), err)
	}

	basePert := 0.0  // E[max‖Δz_{m-1}‖] from the previous stage
	prevRatio := 0.0 // C*/A* of the previous stage

	// stageSet is the frozen-prefix feature set of the current stage: X[i] is
	// z_{m-1} of training sample i. Modules 0..m-1 are fixed for the whole
	// stage and run in eval mode, so z_{m-1} is a constant of the stage: the
	// server-side replicas, which hold the final globals of stage m-1 here,
	// map the previous stage's set through module m-1 once, and every client
	// batch of the stage reads its rows instead of re-running the prefix.
	stageSet := env.Train
	for mIdx := range casc.Modules {
		if mIdx > 0 {
			stageSet = cascade.MapFeatures(onReplicas(func(c *cascade.Cascade) nn.Layer {
				return c.Modules[mIdx-1].Backbone
			}), stageSet, env.Cfg.EvalBatch)
		}
		prefixFwd := casc.PrefixForwardFLOPs(mIdx)
		apa := NewAPAState(p.AlphaInit, p.DeltaAlpha, p.GammaThresh, basePert, prevRatio, p.UseAPA && mIdx > 0)
		bestAdv, bestClean, sincImprove, stalled := -1.0, 0.0, 0, false

		for local := 0; local < p.RoundsPerModule && !stalled; local++ {
			// Module 0 trains against input-space PGD with TrainPGD steps;
			// later modules against the feature-space PGD intrinsic to
			// cascade learning, at APA's ε. TrainPGD ≤ 0 trains every module
			// cleanly, and the telemetry then reports no perturbation.
			var atkCfg attack.Config
			switch {
			case mIdx == 0:
				atkCfg = env.TrainAttackConfig()
			case env.Cfg.TrainPGD > 0:
				atkCfg = attack.FeaturePGDConfig(apa.Eps(), p.FeaturePGDSteps)
			}
			epsNow := 0.0
			if atkCfg.Steps > 0 {
				epsNow = atkCfg.Eps
			}

			train := func(s fl.Seat) (moduleUpload, fl.Client) {
				c := cascs[s.Slot]
				loadGlobalsInto(c)
				perfMin := math.Inf(1)
				for _, d := range s.Round.Devices {
					perfMin = math.Min(perfMin, d.AvailPerf)
				}
				to := AssignModules(c, mIdx, s.Budget, s.Device.AvailPerf, perfMin, p.UseDMA)
				opt := nn.NewSGD(s.Round.LR, env.Cfg.Momentum, env.Cfg.WeightDecay)
				nn.ResetMomentum(c.RangeParams(mIdx, to))
				loss, iters := fl.CycleBatches(s.Data.Indices, env.Cfg.Batch, env.Cfg.LocalIters, s.Rng, func(_ int, b []int) float64 {
					z, y := data.Batch(stageSet, b)
					return c.AdversarialStep(z, y, mIdx, to, atkCfg, p.Mu, opt, s.Rng)
				})

				up := moduleUpload{weight: float64(s.Data.Len()), to: to}
				var upBytes int64
				for j := mIdx; j <= to; j++ {
					vec := nn.ExportParamList(c.Modules[j].BackboneParams())
					bn := nn.ExportBNStats(c.Modules[j].Backbone)
					up.backbone = append(up.backbone, vec)
					up.bn = append(up.bn, bn)
					upBytes += int64(4 * (len(vec) + len(bn)))
				}
				if aux := c.Modules[to].Aux; aux != nil {
					up.aux = nn.ExportParamList(aux.Params())
					upBytes += int64(4 * len(up.aux))
				}

				// Latency accounting: a simulated device holds no feature set,
				// so it is still charged the prefix forward once per batch, as
				// in the paper; the assigned range runs PGD attack passes plus
				// the training pass.
				rangeFwd := c.RangeForwardFLOPs(mIdx, to)
				return up, fl.Client{Loss: loss, Iters: iters, UpBytes: upBytes, Work: simlat.Work{
					FLOPs: int64(iters) * (prefixFwd*int64(env.Cfg.Batch) +
						memmodel.TrainingFLOPs(rangeFwd, env.Cfg.Batch, atkCfg.Steps)),
					MemReq:    c.RangeMemReq(mIdx, to),
					MemBudget: s.Budget,
					Passes:    int64(iters) * simlat.PassesPerBatch(atkCfg.Steps),
					Swap:      false, // DMA never exceeds the budget
				}}
			}
			fold := func(_ fl.Round, ups []moduleUpload) {
				updates := map[int][]moduleUpdate{}
				auxUpdates := map[int][]moduleUpdate{}
				bnUpdates := map[int][]moduleUpdate{}
				for _, u := range ups {
					for k := range u.backbone {
						updates[mIdx+k] = append(updates[mIdx+k], moduleUpdate{u.backbone[k], u.weight})
						bnUpdates[mIdx+k] = append(bnUpdates[mIdx+k], moduleUpdate{u.bn[k], u.weight})
					}
					if u.aux != nil {
						auxUpdates[u.to] = append(auxUpdates[u.to], moduleUpdate{u.aux, u.weight})
					}
				}
				globalBackbone = partialAverage(updates, globalBackbone, env.Aggregate)
				globalAux = partialAverage(auxUpdates, globalAux, env.Aggregate)
				globalBN = partialAverage(bnUpdates, globalBN, env.Aggregate)
				for _, c := range cascs {
					loadGlobalsInto(c)
				}

				// Validation of the cascaded modules for APA and early stopping.
				comp := onReplicas(func(c *cascade.Cascade) nn.Layer { return c.Composite(mIdx) })
				cAcc := attack.CleanAccuracy(comp, valSample, env.Cfg.EvalBatch)
				aAcc := attack.AdvAccuracy(comp, valSample, env.Cfg.EvalBatch,
					attack.PGDConfig(env.Cfg.Eps, p.ValPGD), rng)
				apa.Update(cAcc, aAcc)
				if aAcc > bestAdv {
					bestAdv, bestClean, sincImprove = aAcc, cAcc, 0
				} else {
					sincImprove++
					stalled = sincImprove >= p.Patience
				}
			}
			m := fl.RoundMetrics{PerDimPert: perDimPert(epsNow, casc.Modules[mIdx].InShape, mIdx), Module: mIdx}
			if err := fl.TrainRound(ctx, run, len(run.History), m, train, fold); err != nil {
				return finish(err)
			}
		}

		// Fix module mIdx; collect E[max‖Δz_m‖] for the next stage (Eq. 11)
		// and record C*/A*. The collection only sets the ε of the next
		// stage's feature attack, so a clean run (TrainPGD ≤ 0) skips it.
		if bestAdv > 0 {
			prevRatio = bestClean / bestAdv
		} else {
			prevRatio = 0
		}
		if mIdx < len(casc.Modules)-1 && env.Cfg.TrainPGD > 0 {
			basePert = f.collectOutputPerturbation(env,
				onReplicas(func(c *cascade.Cascade) nn.Layer { return c.Prefix(mIdx) }),
				onReplicas(func(c *cascade.Cascade) nn.Layer { return c.Modules[mIdx].Backbone }),
				apaEpsOrInput(apa, env.Cfg, mIdx), rng)
			if basePert <= 0 {
				basePert = 0.1
			}
			if mIdx == 0 {
				// d*_1 = E[max‖Δz_1‖], the quantity plotted in Figure 8.
				run.Extra["pert_z1"] = basePert
			}
		}
	}

	run.Extra["modules"] = float64(len(casc.Modules))
	maxMod := casc.MaxModuleMemReq()
	run.Extra["mem_module_bytes"] = float64(maxMod)
	run.Extra["mem_reduction"] = 1 - float64(maxMod)/float64(fullCost.TotalBytes)
	return finish(nil)
}

// moduleUpload is one client's upload: the backbone parameters and BN
// statistics of every module it trained (from the stage's module to `to`),
// the aux head of module `to` if it has one, and its FedAvg weight.
type moduleUpload struct {
	weight   float64
	to       int
	backbone [][]float64
	bn       [][]float64
	aux      []float64
}

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
// standing in for the client-side collection of Algorithm 2: prefix maps the
// inputs to module m's input feature, body is module m's backbone.
func (f *FedProphet) collectOutputPerturbation(env *fl.Env, prefix, body nn.Layer, atkCfg attack.Config, rng *rand.Rand) float64 {
	sample := fl.SampleDataset(env.Val, 32, rng)
	if sample.Len() < 2 {
		return 0
	}
	idx := make([]int, sample.Len())
	for i := range idx {
		idx[i] = i
	}
	x, _ := data.Batch(sample, idx)
	return cascade.MaxOutputPerturbation(body, prefix.Forward(x, false), atkCfg, rng)
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
