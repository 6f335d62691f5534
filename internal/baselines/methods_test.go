package baselines

import (
	"context"
	"math/rand"
	"testing"

	"fedprophet/internal/attack"
	"fedprophet/internal/data"
	"fedprophet/internal/device"
	"fedprophet/internal/fl"
	"fedprophet/internal/nn"
)

// mustRun executes a method to completion, failing the test on error.
func mustRun(t *testing.T, m fl.Method, env *fl.Env) *fl.Result {
	t.Helper()
	res, err := m.Run(context.Background(), env)
	if err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	return res
}

// microEnv builds a tiny but complete federated environment for method
// integration tests.
func microEnv(t *testing.T, seed int64) *fl.Env {
	t.Helper()
	cfg := fl.DefaultConfig()
	cfg.NumClients = 8
	cfg.ClientsPerRound = 3
	cfg.Rounds = 3
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

func microBuildTiny(rng *rand.Rand) *nn.Model {
	return nn.CNN3([]int{2, 8, 8}, 4, 2, rng)
}

// checkResult verifies the structural invariants every method must satisfy.
func checkResult(t *testing.T, res *fl.Result, wantRounds int) {
	t.Helper()
	if res.CleanAcc < 0 || res.CleanAcc > 1 ||
		res.PGDAcc < 0 || res.PGDAcc > 1 ||
		res.AAAcc < 0 || res.AAAcc > 1 {
		t.Fatalf("accuracies out of range: %+v", res)
	}
	if res.AAAcc > res.PGDAcc+1e-9 {
		t.Fatalf("AA accuracy (%v) must not exceed PGD accuracy (%v)", res.AAAcc, res.PGDAcc)
	}
	if res.Latency.Total() <= 0 {
		t.Fatal("latency must be positive")
	}
	if len(res.History) != wantRounds {
		t.Fatalf("history has %d rounds, want %d", len(res.History), wantRounds)
	}
	if res.Extra["comm_up_bytes"] <= 0 {
		t.Fatalf("%s: communication accounting missing", res.Method)
	}
}

func TestJFATRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	env := microEnv(t, 11)
	res := mustRun(t, &JFAT{Build: microBuild}, env)
	checkResult(t, res, env.Cfg.Rounds)
	if res.CleanAcc <= 0.3 {
		t.Fatalf("jFAT failed to learn anything: %v", res.CleanAcc)
	}
}

func TestJFATIncursDataAccessWhenConstrained(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	env := microEnv(t, 12)
	// The memory calibration gives the weakest devices ~25% of the full
	// model requirement, so jFAT must swap on them whatever the model size.
	res := mustRun(t, &JFAT{Build: microBuild}, env)
	if res.Latency.DataAccess <= 0 {
		t.Fatal("jFAT on a large model must incur swap data-access latency")
	}
}

func TestPartialTrainingVariantsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, v := range []PartialVariant{HeteroFL, FedDrop, FedRolex} {
		env := microEnv(t, 13+int64(v))
		res := mustRun(t, &PartialTraining{Build: microBuild, Variant: v}, env)
		checkResult(t, res, env.Cfg.Rounds)
		if res.Latency.DataAccess != 0 {
			t.Fatalf("%s must avoid swapping entirely", res.Method)
		}
	}
}

func TestPartialVariantNames(t *testing.T) {
	if (&PartialTraining{Variant: HeteroFL}).Name() != "HeteroFL-AT" ||
		(&PartialTraining{Variant: FedDrop}).Name() != "FedDrop-AT" ||
		(&PartialTraining{Variant: FedRolex}).Name() != "FedRolex-AT" {
		t.Fatal("bad variant names")
	}
}

func TestKDTrainingRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	group := []func(*rand.Rand) *nn.Model{microBuildTiny, microBuild}
	for _, v := range []KDVariant{FedDF, FedET} {
		env := microEnv(t, 17+int64(v))
		res := mustRun(t, &KDTraining{Group: group, Variant: v}, env)
		checkResult(t, res, env.Cfg.Rounds)
	}
}

func TestKDNames(t *testing.T) {
	if (&KDTraining{Variant: FedDF}).Name() != "FedDF-AT" ||
		(&KDTraining{Variant: FedET}).Name() != "FedET-AT" {
		t.Fatal("bad KD names")
	}
}

func TestFedRBNRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	env := microEnv(t, 19)
	res := mustRun(t, &FedRBN{Build: microBuild}, env)
	checkResult(t, res, env.Cfg.Rounds)
	frac, ok := res.Extra["at_client_frac"]
	if !ok || frac < 0 || frac > 1 {
		t.Fatalf("at_client_frac missing or invalid: %v", frac)
	}
	// No round, no client: the fraction is 0, not 0/0.
	env = microEnv(t, 19)
	env.Cfg.Rounds = 0
	res = mustRun(t, &FedRBN{Build: microBuild}, env)
	if frac := res.Extra["at_client_frac"]; frac != 0 {
		t.Fatalf("at_client_frac with 0 rounds = %v, want 0", frac)
	}
}

func TestLocalTrainReducesLoss(t *testing.T) {
	env := microEnv(t, 23)
	rng := rand.New(rand.NewSource(1))
	m := microBuild(rng)
	cfg := env.Cfg
	cfg.LocalIters = 30
	first, _ := fl.LocalTrain(m, env.Subsets[0], cfg, 0.05, attack.Config{}, rng)
	last, _ := fl.LocalTrain(m, env.Subsets[0], cfg, 0.05, attack.Config{}, rng)
	if last >= first {
		t.Fatalf("local training loss did not decrease: %g -> %g", first, last)
	}
	// No iteration runs — no local iterations configured, or the zero Config
	// a bare fldist.Client carries (batch 0 forms no batch): loss 0, not 0/0.
	noIters := env.Cfg
	noIters.LocalIters = 0
	for _, c := range []fl.Config{noIters, {}} {
		if loss, iters := fl.LocalTrain(m, env.Subsets[0], c, 0.05, attack.Config{}, rng); loss != 0 || iters != 0 {
			t.Fatalf("LocalIters %d, Batch %d: (loss, iters) = (%v, %d), want (0, 0)",
				c.LocalIters, c.Batch, loss, iters)
		}
	}
}
