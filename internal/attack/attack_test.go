package attack

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fedprophet/internal/data"
	"fedprophet/internal/nn"
	"fedprophet/internal/tensor"
)

// quadGrad is a simple concave loss −‖x−target‖² whose PGD maximum inside a
// ball is the projection of target.
func quadGrad(target *tensor.Tensor) GradFn {
	return func(x *tensor.Tensor) (float64, *tensor.Tensor) {
		g := tensor.Sub(target, x) // gradient of −½‖x−t‖² is (t−x)
		l := -0.5 * math.Pow(tensor.Sub(x, target).L2Norm(), 2)
		for i := range g.Data {
			g.Data[i] *= 2
		}
		return l, g
	}
}

func TestPGDStaysInLInfBall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := tensor.Uniform(r, 0.2, 0.8, 2, 6)
		target := tensor.Uniform(r, -1, 2, 2, 6)
		cfg := Config{Eps: 0.1, StepSize: 0.03, Steps: 7, Norm: LInf,
			RandomStart: true, ClampMin: 0, ClampMax: 1}
		adv := Perturb(cfg, x, quadGrad(target), rng)
		for i := range adv.Data {
			d := math.Abs(adv.Data[i] - x.Data[i])
			if d > cfg.Eps+1e-12 {
				return false
			}
			if adv.Data[i] < 0 || adv.Data[i] > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPGDStaysInL2BallPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := tensor.Randn(r, 1, 3, 8)
		target := tensor.Randn(r, 3, 3, 8)
		cfg := FeaturePGDConfig(0.5, 6)
		adv := Perturb(cfg, x, quadGrad(target), rng)
		per := 8
		for b := 0; b < 3; b++ {
			n := 0.0
			for i := 0; i < per; i++ {
				d := adv.Data[b*per+i] - x.Data[b*per+i]
				n += d * d
			}
			if math.Sqrt(n) > cfg.Eps*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPGDIncreasesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.Uniform(rng, 0.3, 0.7, 2, 10)
	target := tensor.Uniform(rng, 0.3, 0.7, 2, 10)
	g := quadGrad(target)
	l0, _ := g(x)
	cfg := Config{Eps: 0.2, StepSize: 0.05, Steps: 10, Norm: LInf, ClampMin: 0, ClampMax: 1}
	adv := Perturb(cfg, x, g, rng)
	l1, _ := g(adv)
	if l1 <= l0 {
		t.Fatalf("PGD failed to increase loss: %g -> %g", l0, l1)
	}
}

func TestPGDDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.Uniform(rng, 0, 1, 2, 5)
	orig := x.Clone()
	target := tensor.Uniform(rng, 0, 1, 2, 5)
	Perturb(PGDConfig(0.1, 3), x, quadGrad(target), rng)
	for i := range x.Data {
		if x.Data[i] != orig.Data[i] {
			t.Fatal("Perturb mutated its input")
		}
	}
}

func TestFGSMEqualsOneStepSign(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.Uniform(rng, 0.4, 0.6, 1, 6)
	// Loss with constant gradient direction (+1,−1,+1,...).
	g := func(in *tensor.Tensor) (float64, *tensor.Tensor) {
		gr := tensor.New(in.Shape()...)
		for i := range gr.Data {
			if i%2 == 0 {
				gr.Data[i] = 1
			} else {
				gr.Data[i] = -1
			}
		}
		return 0, gr
	}
	adv := Perturb(FGSMConfig(0.05), x, g, rng)
	for i := range adv.Data {
		want := x.Data[i] + 0.05
		if i%2 == 1 {
			want = x.Data[i] - 0.05
		}
		if math.Abs(adv.Data[i]-want) > 1e-12 {
			t.Fatalf("FGSM[%d] = %v, want %v", i, adv.Data[i], want)
		}
	}
}

// trainTinyModel fits a small CNN on a tiny synthetic set; used by the
// integration tests below.
func trainTinyModel(t *testing.T, adversarial bool) (*nn.Model, *data.Dataset) {
	t.Helper()
	cfg := data.SyntheticConfig{
		Name: "t", Classes: 3, Shape: []int{2, 8, 8},
		TrainPerClass: 30, TestPerClass: 15,
		NoiseStd: 0.08, MixMax: 0.2, Seed: 11,
	}
	train, test := data.Generate(cfg)
	rng := rand.New(rand.NewSource(7))
	m := nn.CNN3([]int{2, 8, 8}, 3, 4, rng)
	opt := nn.NewSGD(0.05, 0.9, 1e-4)
	idx := make([]int, train.Len())
	for i := range idx {
		idx[i] = i
	}
	eps := 8.0 / 255
	for epoch := 0; epoch < 12; epoch++ {
		for _, b := range data.Batches(idx, 16, rng) {
			x, y := data.Batch(train, b)
			if adversarial {
				x = Perturb(PGDConfig(eps, 5), x, CEGradFn(m, y), rng)
			}
			out := m.Forward(x, true)
			_, g := nn.SoftmaxCrossEntropy(out, y)
			nn.ZeroGrads(m)
			m.Backward(g)
			opt.Step(m.Params())
		}
	}
	return m, test
}

// Integration: adversarial training confers more robustness than standard
// training, and AutoAttack surrogate is at most as generous as plain PGD.
func TestAdversarialTrainingImprovesRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("training integration test")
	}
	rng := rand.New(rand.NewSource(21))
	eps := 8.0 / 255

	st, test := trainTinyModel(t, false)
	at, _ := trainTinyModel(t, true)

	stClean := CleanAccuracy(st, test, 16)
	atClean := CleanAccuracy(at, test, 16)
	stAdv := AdvAccuracy(st, test, 16, PGDConfig(eps, 10), rng)
	atAdv := AdvAccuracy(at, test, 16, PGDConfig(eps, 10), rng)

	if stClean < 0.5 || atClean < 0.5 {
		t.Fatalf("models failed to learn: ST %v AT %v", stClean, atClean)
	}
	if atAdv <= stAdv {
		t.Fatalf("AT robustness (%v) should exceed ST robustness (%v)", atAdv, stAdv)
	}
	// PGD must cost accuracy relative to clean data on the ST model.
	if stAdv >= stClean {
		t.Fatalf("PGD had no effect on standard model: clean %v adv %v", stClean, stAdv)
	}

	aa := AutoAttackAccuracy(at, test, 16, eps, 10, rng)
	if aa > atAdv+1e-9 {
		t.Fatalf("AA surrogate (%v) should not exceed PGD accuracy (%v)", aa, atAdv)
	}
}

func TestCleanAccuracyMatchesManualCount(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := data.SyntheticConfig{
		Name: "t", Classes: 2, Shape: []int{1, 8, 8},
		TrainPerClass: 4, TestPerClass: 8,
		NoiseStd: 0.05, MixMax: 0.1, Seed: 3,
	}
	_, test := data.Generate(cfg)
	m := nn.CNN3([]int{1, 8, 8}, 2, 2, rng)
	acc := CleanAccuracy(m, test, 5)
	// Manual count.
	correct := 0
	for i := 0; i < test.Len(); i++ {
		x, y := data.Batch(test, []int{i, i}) // duplicate to satisfy BN-free batch shape
		out := m.Forward(x, false)
		if out.ArgMaxRow(0) == y[0] {
			correct++
		}
	}
	want := float64(correct) / float64(test.Len())
	if math.Abs(acc-want) > 1e-12 {
		t.Fatalf("CleanAccuracy %v, manual %v", acc, want)
	}
}
