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

// Run executes Algorithm 2, one module stage at a time, and evaluates the
// final backbone.
func (f *FedProphet) Run(ctx context.Context, env *fl.Env) (*fl.Result, error) {
	for k, sub := range env.Subsets {
		if sub.Parent != env.Train {
			return nil, fmt.Errorf("core: client %d's subset does not index env.Train", k)
		}
	}
	r := newCascadeRun(f.Name(), f.Params, env)
	var err error
	for m := 0; m < len(r.global) && err == nil; m++ {
		err = r.stage(ctx, m)
	}
	casc := r.cascs[0]
	if err == nil {
		maxMod := casc.MaxModuleMemReq()
		r.run.Extra["modules"] = float64(len(casc.Modules))
		r.run.Extra["mem_module_bytes"] = float64(maxMod)
		r.run.Extra["mem_reduction"] = 1 - float64(maxMod)/float64(r.fullBytes)
	}
	r.load(casc)
	r.run.Extra["rounds"] = float64(len(r.run.History))
	return r.run.Finish(casc.Full(), err)
}

// cascadeRun is one execution of Algorithm 2: the model replicas, the global
// model, what a fixed stage hands the next, and the stage in training.
type cascadeRun struct {
	p         fl.MethodParams
	env       *fl.Env
	run       *fl.Run
	fullBytes int64 // the full model's training memory
	valSample *data.Dataset

	// cascs holds one structurally identical cascade per worker slot, built
	// from the same seeds: a client loads the global model into its slot's
	// replica, so a round's clients train concurrently without sharing
	// mutable state. The server passes — validation, the stage feature map
	// and the perturbation collection — split their batches across all of
	// them (onReplicas); cascs[0] is the final model.
	cascs  []*cascade.Cascade
	global []moduleState // per module, the global values

	// Handed from stage m-1 to stage m.
	basePert  float64       // E[max‖Δz_{m-1}‖] (Eq. 11)
	prevRatio float64       // C*_{m-1}/A*_{m-1}, 0 when A* is 0
	stageSet  *data.Dataset // z_{m-1} of every training sample

	// The stage in training.
	m                  int
	apa                *APAState
	atk                attack.Config // this round's client attack
	bestAdv, bestClean float64       // best validation A and its C
	sinceBest          int           // rounds since bestAdv rose
}

// moduleState is one module's parameters: its backbone weights and BN
// statistics, and its aux head's weights (nil for the final module).
type moduleState struct {
	backbone, bn, aux []float64
}

// moduleUpload is one client's upload: the state of every module it trained
// (from the stage's module to `to`; only module `to`'s aux head) and its
// FedAvg weight.
type moduleUpload struct {
	weight  float64
	to      int
	modules []moduleState
}

// newCascadeRun builds the replicas and the global model, and opens the run.
func newCascadeRun(name string, p fl.MethodParams, env *fl.Env) *cascadeRun {
	modelSeed, partSeed := env.Rng.Int63(), env.Rng.Int63()
	r := &cascadeRun{p: p, env: env, cascs: make([]*cascade.Cascade, env.ClientWorkers()), stageSet: env.Train}
	for s := range r.cascs {
		m := p.BuildLarge(rand.New(rand.NewSource(modelSeed)))
		r.fullBytes = memmodel.MemReqModel(m, env.Cfg.Batch).TotalBytes
		rmin := int64(p.RminFrac * float64(r.fullBytes))
		r.cascs[s] = cascade.Partition(m, rmin, env.Cfg.Batch, rand.New(rand.NewSource(partSeed)))
	}
	r.run = env.Start(name, r.fullBytes)
	r.valSample = fl.SampleDataset(env.Val, p.ValSize, env.Rng)
	r.global = make([]moduleState, len(r.cascs[0].Modules))
	for n := range r.global {
		r.global[n] = exportModule(r.cascs[0].Modules[n], true)
	}
	return r
}

// exportModule copies module m's backbone and BN statistics and, if withAux,
// its aux head.
func exportModule(m *cascade.Module, withAux bool) moduleState {
	st := moduleState{backbone: nn.ExportParamList(m.BackboneParams()), bn: nn.ExportBNStats(m.Backbone)}
	if withAux && m.Aux != nil {
		st.aux = nn.ExportParamList(m.Aux.Params())
	}
	return st
}

// load copies the global model into replica c.
func (r *cascadeRun) load(c *cascade.Cascade) {
	for n, m := range c.Modules {
		nn.ImportParamList(m.BackboneParams(), r.global[n].backbone)
		nn.ImportBNStats(m.Backbone, r.global[n].bn)
		if m.Aux != nil {
			nn.ImportParamList(m.Aux.Params(), r.global[n].aux)
		}
	}
}

// onReplicas runs layer's eval-mode batches split across every replica.
func (r *cascadeRun) onReplicas(layer func(c *cascade.Cascade) nn.Layer) nn.Layer {
	ls := make([]nn.Layer, len(r.cascs))
	for s, c := range r.cascs {
		ls[s] = layer(c)
	}
	return nn.NewReplicas(ls...)
}

// stage trains module m until validation robustness stalls or the round cap,
// then fixes it and hands the next stage C*/A* and E[max‖Δz_m‖].
func (r *cascadeRun) stage(ctx context.Context, m int) error {
	r.begin(m)
	// Patience below 1 still ends the stage at its first round without a gain.
	for t := 0; t < r.p.RoundsPerModule && r.sinceBest < max(r.p.Patience, 1); t++ {
		// Module 0 trains against input-space PGD with TrainPGD steps; later
		// modules against the feature-space PGD intrinsic to cascade
		// learning, at APA's ε. TrainPGD ≤ 0 trains every module cleanly, and
		// the telemetry then reports no perturbation.
		r.atk = attack.Config{}
		switch {
		case m == 0:
			r.atk = r.env.TrainAttackConfig()
		case r.env.Cfg.TrainPGD > 0:
			r.atk = attack.FeaturePGDConfig(r.apa.Eps(), r.env.Cfg.TrainPGD)
		}
		metrics := fl.RoundMetrics{PerDimPert: perDimPert(r.atk.Eps, r.cascs[0].Modules[m].InShape, m), Module: m}
		if err := fl.TrainRound(ctx, r.run, len(r.run.History), metrics, r.clientStep, r.fold); err != nil {
			return err
		}
	}

	// Fix module m: record C*/A* and collect E[max‖Δz_m‖] (Eq. 11). The
	// collection only sets the ε of the next stage's feature attack, so a
	// clean run (TrainPGD ≤ 0) skips it.
	r.prevRatio = 0
	if r.bestAdv > 0 {
		r.prevRatio = r.bestClean / r.bestAdv
	}
	if m < len(r.global)-1 && r.env.Cfg.TrainPGD > 0 {
		inCfg := attack.PGDConfig(r.env.Cfg.Eps, 5)
		if m > 0 {
			inCfg = attack.FeaturePGDConfig(r.apa.Eps(), 5)
		}
		r.basePert = collectOutputPerturbation(r.env,
			r.onReplicas(func(c *cascade.Cascade) nn.Layer { return c.Prefix(m) }),
			r.onReplicas(func(c *cascade.Cascade) nn.Layer { return c.Modules[m].Backbone }),
			inCfg, r.env.Rng)
		if r.basePert <= 0 {
			r.basePert = 0.1
		}
		if m == 0 {
			// d*_1 = E[max‖Δz_1‖], the quantity plotted in Figure 8.
			r.run.Extra["pert_z1"] = r.basePert
		}
	}
	return nil
}

// begin opens stage m. Modules 0..m-1 are fixed for the whole stage and run
// in eval mode, so z_{m-1} is a constant of the stage: the replicas, which
// hold the final globals of stage m-1, map the previous stage's feature set
// through module m-1 once, and every client batch of the stage reads its
// rows instead of re-running the prefix.
func (r *cascadeRun) begin(m int) {
	if m > 0 {
		r.stageSet = cascade.MapFeatures(r.onReplicas(func(c *cascade.Cascade) nn.Layer {
			return c.Modules[m-1].Backbone
		}), r.stageSet, r.env.Cfg.EvalBatch)
	}
	r.m = m
	r.apa = NewAPAState(r.p.AlphaInit, r.basePert, r.prevRatio, r.p.UseAPA && m > 0)
	r.bestAdv, r.bestClean, r.sinceBest = -1, 0, 0
}

// clientStep is one client's local training in the current stage: DMA
// (Eqs. 14–15) assigns it modules m..to, which it trains adversarially on
// its slot's replica and uploads.
func (r *cascadeRun) clientStep(s fl.Seat) (moduleUpload, fl.Client) {
	env, m, c := r.env, r.m, r.cascs[s.Slot]
	r.load(c)
	perfMin := math.Inf(1)
	for _, d := range s.Round.Devices {
		perfMin = math.Min(perfMin, d.AvailPerf)
	}
	to := AssignModules(c, m, s.Budget, s.Device.AvailPerf, perfMin, r.p.UseDMA)
	opt := nn.NewSGD(s.Round.LR, env.Cfg.Momentum, env.Cfg.WeightDecay)
	nn.ResetMomentum(c.RangeParams(m, to))
	loss, iters := fl.CycleBatches(s.Data.Indices, env.Cfg.Batch, env.Cfg.LocalIters, s.Rng, func(_ int, b []int) float64 {
		z, y := data.Batch(r.stageSet, b)
		return c.AdversarialStep(z, y, m, to, r.atk, r.p.Mu, opt, s.Rng)
	})

	up := moduleUpload{weight: float64(s.Data.Len()), to: to}
	var upBytes int64
	for j := m; j <= to; j++ {
		st := exportModule(c.Modules[j], j == to)
		up.modules = append(up.modules, st)
		upBytes += int64(4 * (len(st.backbone) + len(st.bn) + len(st.aux)))
	}

	// Latency accounting: a simulated device holds no feature set, so it is
	// still charged the prefix forward once per batch, as in the paper; the
	// assigned range runs PGD attack passes plus the training pass.
	rangeFwd := c.RangeForwardFLOPs(m, to)
	return up, fl.Client{Loss: loss, Iters: iters, UpBytes: upBytes, Work: simlat.Work{
		FLOPs: int64(iters) * (c.PrefixForwardFLOPs(m)*int64(env.Cfg.Batch) +
			memmodel.TrainingFLOPs(rangeFwd, env.Cfg.Batch, r.atk.Steps)),
		MemReq:    c.RangeMemReq(m, to),
		MemBudget: s.Budget,
		Passes:    int64(iters) * simlat.PassesPerBatch(r.atk.Steps),
		Swap:      false, // DMA never exceeds the budget
	}}
}

// fold is the server side of a round: the partial average, then validation
// of the cascaded modules for APA (Eq. 12) and early stopping. Module n's
// backbone and BN average the uploads with m ≤ n ≤ to (Eq. 16), its aux head
// those with to == n (Eq. 17); a module no client trained keeps its value.
func (r *cascadeRun) fold(_ fl.Round, ups []moduleUpload) {
	for n := r.m; n < len(r.global); n++ {
		var bb, bn, aux [][]float64
		var ws, auxWs []float64
		for _, u := range ups {
			if n > u.to {
				continue
			}
			st := u.modules[n-r.m]
			bb, bn, ws = append(bb, st.backbone), append(bn, st.bn), append(ws, u.weight)
			if n == u.to && st.aux != nil {
				aux, auxWs = append(aux, st.aux), append(auxWs, u.weight)
			}
		}
		if len(ws) > 0 {
			r.global[n].backbone, r.global[n].bn = r.env.Aggregate(bb, ws), r.env.Aggregate(bn, ws)
		}
		if len(auxWs) > 0 {
			r.global[n].aux = r.env.Aggregate(aux, auxWs)
		}
	}
	for _, c := range r.cascs {
		r.load(c)
	}

	comp := r.onReplicas(func(c *cascade.Cascade) nn.Layer { return c.Composite(r.m) })
	cAcc := attack.CleanAccuracy(comp, r.valSample, r.env.Cfg.EvalBatch)
	aAcc := attack.AdvAccuracy(comp, r.valSample, r.env.Cfg.EvalBatch,
		attack.PGDConfig(r.env.Cfg.Eps, valPGD), r.env.Rng)
	r.apa.Update(cAcc, aAcc)
	if aAcc > r.bestAdv {
		r.bestAdv, r.bestClean, r.sinceBest = aAcc, cAcc, 0
	} else {
		r.sinceBest++
	}
}

// collectOutputPerturbation estimates E[max‖Δz_m‖] on validation batches,
// standing in for the client-side collection of Algorithm 2: prefix maps the
// inputs to module m's input feature, body is module m's backbone, and atk
// bounds module m's input perturbation (ε0 for the first module, the APA ε
// for later ones).
func collectOutputPerturbation(env *fl.Env, prefix, body nn.Layer, atk attack.Config, rng *rand.Rand) float64 {
	sample := fl.SampleDataset(env.Val, 32, rng)
	if sample.Len() < 2 {
		return 0
	}
	idx := make([]int, sample.Len())
	for i := range idx {
		idx[i] = i
	}
	x, _ := data.Batch(sample, idx)
	return cascade.MaxOutputPerturbation(body, prefix.Forward(x, false), atk, rng)
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
