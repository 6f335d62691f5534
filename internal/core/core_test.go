package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"fedprophet/internal/cascade"
	"fedprophet/internal/data"
	"fedprophet/internal/device"
	"fedprophet/internal/fl"
	"fedprophet/internal/memmodel"
	"fedprophet/internal/nn"
)

func TestAPAEpsIsAlphaTimesBase(t *testing.T) {
	s := NewAPAState(0.3, 2.0, 1.5, true)
	if s.Eps() != 0.6 {
		t.Fatalf("Eps = %v, want 0.6", s.Eps())
	}
}

func TestAPAUpdateRaisesAlphaWhenRatioTooHigh(t *testing.T) {
	// PrevRatio 1.5; clean/adv = 0.9/0.4 = 2.25 > 1.05·1.5 → α += Δα.
	s := NewAPAState(0.3, 1, 1.5, true)
	s.Update(0.9, 0.4)
	if s.Alpha != 0.4 {
		t.Fatalf("Alpha = %v, want 0.4", s.Alpha)
	}
}

func TestAPAUpdateLowersAlphaWhenRatioTooLow(t *testing.T) {
	// clean/adv = 0.5/0.48 ≈ 1.04 < 0.95·1.5 → α −= Δα.
	s := NewAPAState(0.3, 1, 1.5, true)
	s.Update(0.5, 0.48)
	if s.Alpha >= 0.3 {
		t.Fatalf("Alpha = %v, want < 0.3", s.Alpha)
	}
}

func TestAPAUpdateDeadZone(t *testing.T) {
	// ratio within ±γ of PrevRatio keeps α.
	s := NewAPAState(0.3, 1, 1.5, true)
	s.Update(0.6, 0.4) // ratio 1.5 exactly
	if s.Alpha != 0.3 {
		t.Fatalf("Alpha = %v, want unchanged 0.3", s.Alpha)
	}
}

func TestAPADisabledNeverMoves(t *testing.T) {
	s := NewAPAState(0.3, 1, 1.5, false)
	s.Update(1.0, 0.01)
	if s.Alpha != 0.3 {
		t.Fatal("disabled APA must not adjust alpha")
	}
}

func TestAPAZeroAdvAccRaises(t *testing.T) {
	s := NewAPAState(0.3, 1, 1.5, true)
	s.Update(0.8, 0)
	if s.Alpha != 0.4 {
		t.Fatalf("Alpha = %v, want 0.4 on robustness collapse", s.Alpha)
	}
}

func TestAPAAlphaNeverNegative(t *testing.T) {
	s := NewAPAState(0.05, 1, 1.5, true)
	s.Update(0.5, 0.49) // force decrease
	if s.Alpha < 0 {
		t.Fatalf("Alpha went negative: %v", s.Alpha)
	}
}

// mustRun executes a method to completion, failing the test on error.
func mustRun(t *testing.T, m fl.Method, env *fl.Env) *fl.Result {
	t.Helper()
	res, err := m.Run(context.Background(), env)
	if err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	return res
}

func buildTestCascade(t *testing.T) *cascade.Cascade {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	m := nn.VGG16S([]int{3, 16, 16}, 10, 4, rng)
	full := memmodel.MemReqModel(m, 8).TotalBytes
	return cascade.Partition(m, full/5, 8, rng)
}

func TestAssignModulesRespectsMemory(t *testing.T) {
	c := buildTestCascade(t)
	if len(c.Modules) < 3 {
		t.Skip("need ≥3 modules")
	}
	// Budget for exactly one module.
	b1 := c.RangeMemReq(0, 0)
	got := AssignModules(c, 0, b1, 100, 1, true)
	if got != 0 {
		t.Fatalf("tight budget must assign a single module, got up to %d", got)
	}
	// Huge budget and performance: memory no longer binds.
	huge := c.RangeMemReq(0, len(c.Modules)-1) * 2
	got = AssignModules(c, 0, huge, 1e6, 1, true)
	if got == 0 {
		t.Fatal("prophet client should receive extra modules")
	}
	for to := 0; to <= got; to++ {
		if c.RangeMemReq(0, to) > huge {
			t.Fatal("assignment exceeded memory budget")
		}
	}
}

func TestAssignModulesRespectsFLOPs(t *testing.T) {
	c := buildTestCascade(t)
	if len(c.Modules) < 3 {
		t.Skip("need ≥3 modules")
	}
	huge := c.RangeMemReq(0, len(c.Modules)-1) * 2
	// perf == perfMin: Eq. 15 limits FLOPs to one module's cost.
	got := AssignModules(c, 0, huge, 1.0, 1.0, true)
	limit := c.RangeForwardFLOPs(0, 0)
	if c.RangeForwardFLOPs(0, got) > limit {
		t.Fatalf("FLOPs constraint violated: %d > %d", c.RangeForwardFLOPs(0, got), limit)
	}
}

func TestAssignModulesDisabledDMA(t *testing.T) {
	c := buildTestCascade(t)
	got := AssignModules(c, 1, 1<<62, 1e9, 1, false)
	if got != 1 {
		t.Fatalf("DMA off must assign exactly the current module, got %d", got)
	}
}

func TestAssignModulesNeverBelowCurrent(t *testing.T) {
	c := buildTestCascade(t)
	got := AssignModules(c, 2, 1, 0.001, 1, true) // impossible budget
	if got != 2 {
		t.Fatalf("assignment must include the current module, got %d", got)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := nn.NewLinear(4, 3, rng)
	b := nn.NewLinear(4, 3, rand.New(rand.NewSource(3)))
	nn.ImportParamList(b.Params(), nn.ExportParamList(a.Params()))
	av, bv := nn.ExportParamList(a.Params()), nn.ExportParamList(b.Params())
	for i := range av {
		if av[i] != bv[i] {
			t.Fatal("round trip mismatch")
		}
	}
}

// microEnv builds a tiny but complete federated environment.
func microEnv(t *testing.T, seed int64) *fl.Env {
	t.Helper()
	cfg := fl.DefaultConfig()
	cfg.NumClients = 8
	cfg.ClientsPerRound = 3
	cfg.LocalIters = 4
	cfg.Batch = 8
	cfg.TrainPGD = 3
	cfg.EvalPGD = 5
	cfg.EvalAASteps = 5
	cfg.EvalBatch = 16
	cfg.LR = 0.05

	dcfg := data.SyntheticConfig{
		Name: "micro", Classes: 4, Shape: []int{2, 8, 8},
		TrainPerClass: 40, TestPerClass: 12,
		NoiseStd: 0.08, MixMax: 0.2, Seed: seed,
	}
	train, test := data.Generate(dcfg)
	train, val := data.SplitHoldout(train, 0.15, seed)
	train, public := data.SplitHoldout(train, 0.1, seed+1)
	subs := data.PartitionNonIID(train, data.DefaultPartition(cfg.NumClients, seed))
	rng := rand.New(rand.NewSource(seed))
	fleet := device.NewFleet(device.CIFARPool(), cfg.NumClients, device.Balanced, rng)
	return &fl.Env{
		Train: train, Subsets: subs, Val: val, Test: test, Public: public,
		Fleet: fleet, Cfg: cfg, Rng: rng,
	}
}

func microBuild(rng *rand.Rand) *nn.Model {
	return nn.CNN3([]int{2, 8, 8}, 4, 4, rng)
}

// microParams is FedProphet on microBuild with the paper's coordinator
// values (Rmin 20 %, µ 1e-5, α₀ 0.3, APA and DMA on) and the given
// per-stage round budget, patience and validation sample size.
func microParams(rpm, patience, valSize int) fl.MethodParams {
	return fl.MethodParams{
		BuildLarge:      microBuild,
		RminFrac:        0.2,
		RoundsPerModule: rpm,
		Patience:        patience,
		Mu:              1e-5,
		AlphaInit:       0.3,
		UseAPA:          true,
		UseDMA:          true,
		ValSize:         valSize,
	}
}

func TestFedProphetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	env := microEnv(t, 5)
	res := mustRun(t, New(microParams(4, 4, 24)), env)
	if res.CleanAcc <= 1.0/4+0.1 {
		t.Fatalf("FedProphet failed to learn: clean acc %v", res.CleanAcc)
	}
	if res.PGDAcc < 0 || res.AAAcc > res.PGDAcc+1e-9 {
		t.Fatalf("robustness metrics inconsistent: PGD %v AA %v", res.PGDAcc, res.AAAcc)
	}
	if res.Extra["modules"] < 2 {
		t.Fatalf("expected a multi-module partition, got %v", res.Extra["modules"])
	}
	if res.Extra["mem_reduction"] <= 0.3 {
		t.Fatalf("memory reduction too small: %v", res.Extra["mem_reduction"])
	}
	if res.Latency.Total() <= 0 {
		t.Fatal("latency must be positive")
	}
	if len(res.History) == 0 {
		t.Fatal("history must be recorded")
	}
	// Per-dim perturbation must be recorded for every round and positive
	// once past module 0.
	for _, h := range res.History {
		if h.PerDimPert < 0 {
			t.Fatal("negative per-dim perturbation")
		}
	}
}

func TestFedProphetDeterministicSameSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	p := microParams(2, 2, 16)
	r1 := mustRun(t, New(p), microEnv(t, 9))
	r2 := mustRun(t, New(p), microEnv(t, 9))
	if r1.CleanAcc != r2.CleanAcc || r1.PGDAcc != r2.PGDAcc {
		t.Fatalf("same seed must reproduce results: %v/%v vs %v/%v",
			r1.CleanAcc, r1.PGDAcc, r2.CleanAcc, r2.PGDAcc)
	}
}

func TestCommBytesGrowWithRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	mk := func(rpm int) fl.MethodParams { return microParams(rpm, rpm, 8) }
	short := mustRun(t, New(mk(1)), microEnv(t, 33))
	long := mustRun(t, New(mk(3)), microEnv(t, 33))
	if long.Extra["comm_up_bytes"] <= short.Extra["comm_up_bytes"] {
		t.Fatalf("more rounds must upload more: %v vs %v",
			short.Extra["comm_up_bytes"], long.Extra["comm_up_bytes"])
	}
}

// constState is a module state shaped like st with every value v.
func constState(st moduleState, v float64) moduleState {
	fill := func(src []float64) []float64 {
		out := make([]float64, len(src))
		for i := range out {
			out[i] = v
		}
		return out
	}
	return moduleState{backbone: fill(st.backbone), bn: fill(st.bn), aux: fill(st.aux)}
}

func allEqual(vec []float64, v float64) bool {
	for _, x := range vec {
		if x != v {
			return false
		}
	}
	return true
}

// newMicroRun opens stage 0 of a FedProphet run on the micro environment,
// with at least three modules so module 1 still has an aux head.
func newMicroRun(t *testing.T, dma bool) (*cascadeRun, *fl.Env) {
	t.Helper()
	p := microParams(1, 1, 8)
	p.UseDMA = dma
	env := microEnv(t, 3)
	r := newCascadeRun("FedProphet", p, env)
	if len(r.global) < 3 {
		t.Fatalf("micro partition has %d modules, want ≥ 3", len(r.global))
	}
	r.begin(0)
	return r, env
}

// cloneState is a deep copy of st.
func cloneState(st moduleState) moduleState {
	return moduleState{slices.Clone(st.backbone), slices.Clone(st.bn), slices.Clone(st.aux)}
}

func stateEqual(a, b moduleState) bool {
	return slices.Equal(a.backbone, b.backbone) && slices.Equal(a.bn, b.bn) && slices.Equal(a.aux, b.aux)
}

// TestPartialAverageBasic drives the round fold Run uses: two equal-weight
// uploads that stopped at module 0 average there (Eqs. 16-17), and the
// modules no client trained keep their values.
func TestPartialAverageBasic(t *testing.T) {
	r, _ := newMicroRun(t, true)
	g := r.global
	prev1, prev2 := cloneState(g[1]), cloneState(g[2])
	ups := []moduleUpload{
		{weight: 1, to: 0, modules: []moduleState{constState(g[0], 1)}},
		{weight: 1, to: 0, modules: []moduleState{constState(g[0], 3)}},
	}
	r.fold(fl.Round{}, ups)

	g = r.global
	if !allEqual(g[0].backbone, 2) || !allEqual(g[0].bn, 2) || !allEqual(g[0].aux, 2) {
		t.Fatal("module 0 must be the plain average of both uploads")
	}
	if !stateEqual(g[1], prev1) || !stateEqual(g[2], prev2) {
		t.Fatal("untrained modules must keep their values")
	}
}

// TestPartialAverageWeighted drives the same fold with a 3:1 weighting:
// module n averages the uploads with m ≤ n ≤ to (Eq. 16), its aux head only
// those with to == n (Eq. 17), and a module no client trained keeps its value.
func TestPartialAverageWeighted(t *testing.T) {
	r, _ := newMicroRun(t, true)
	g := r.global
	untouched := cloneState(g[2])
	ups := []moduleUpload{
		{weight: 3, to: 0, modules: []moduleState{constState(g[0], 0)}},
		// B's module 0 carries an aux head the fold must ignore.
		{weight: 1, to: 1, modules: []moduleState{constState(g[0], 4), constState(g[1], 4)}},
	}
	r.fold(fl.Round{}, ups)

	g = r.global
	if !allEqual(g[0].backbone, 1) || !allEqual(g[0].bn, 1) {
		t.Fatal("module 0 must be the 3:1 weighted average of both uploads")
	}
	if !allEqual(g[0].aux, 0) {
		t.Fatal("module 0's aux head must come only from the upload that stopped at 0")
	}
	if !allEqual(g[1].backbone, 4) || !allEqual(g[1].bn, 4) || !allEqual(g[1].aux, 4) {
		t.Fatal("module 1 must be the one upload that trained it")
	}
	if !stateEqual(g[2], untouched) {
		t.Fatal("untrained module 2 must keep its value")
	}
}

// TestClientStepDMA drives one client step through the code Run uses: with
// DMA off the client trains exactly the stage's module; with it on, a client
// whose budget and speed admit modules 0..1 trains both.
func TestClientStepDMA(t *testing.T) {
	for _, dma := range []bool{false, true} {
		r, env := newMicroRun(t, dma)
		round := env.DrawRound(0)
		dev := round.Devices[0]
		dev.AvailPerf = 1e9 // Eq. 15 does not bind
		c := r.cascs[0]
		up, cl := r.clientStep(fl.Seat{
			Round: &round, Rng: rand.New(rand.NewSource(1)), Data: env.Subsets[0],
			Device: dev, Budget: c.RangeMemReq(0, 1),
		})
		want := 0
		if dma {
			want = 1
		}
		if up.to != want || len(up.modules) != want+1 || cl.Iters == 0 {
			t.Fatalf("DMA %v: trained 0..%d (%d uploads, %d iters), want 0..%d", dma, up.to, len(up.modules), cl.Iters, want)
		}
		moved := !slices.Equal(nn.ExportParamList(c.Modules[1].BackboneParams()), r.global[1].backbone)
		if moved != dma {
			t.Fatalf("DMA %v: module 1 moved = %v", dma, moved)
		}
	}
}
