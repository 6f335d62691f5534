package cascade

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fedprophet/internal/attack"
	"fedprophet/internal/memmodel"
	"fedprophet/internal/nn"
	"fedprophet/internal/tensor"
)

func testModel(rng *rand.Rand) *nn.Model {
	return nn.VGG16S([]int{3, 16, 16}, 10, 4, rng)
}

func TestPartitionCoversAllAtomsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := testModel(rng)
	full := memmodel.MemReqModel(m, 8).TotalBytes
	c := Partition(m, full/5, 8, rng)

	var atoms []nn.Layer
	for _, mod := range c.Modules {
		atoms = append(atoms, mod.Backbone.Layers...)
	}
	if len(atoms) != len(m.Atoms) {
		t.Fatalf("partition has %d atoms, model %d", len(atoms), len(m.Atoms))
	}
	for i := range atoms {
		if atoms[i] != m.Atoms[i] {
			t.Fatalf("atom %d out of order", i)
		}
	}
}

func TestPartitionModuleShapesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := testModel(rng)
	full := memmodel.MemReqModel(m, 8).TotalBytes
	c := Partition(m, full/5, 8, rng)
	if len(c.Modules) < 2 {
		t.Fatalf("expected multiple modules, got %d", len(c.Modules))
	}
	shape := m.InShape
	for i, mod := range c.Modules {
		if len(mod.InShape) != len(shape) {
			t.Fatalf("module %d InShape rank mismatch", i)
		}
		for j := range shape {
			if mod.InShape[j] != shape[j] {
				t.Fatalf("module %d InShape %v, want %v", i, mod.InShape, shape)
			}
		}
		shape = mod.OutShape
	}
	// Final module outputs class logits and has no aux head.
	last := c.Modules[len(c.Modules)-1]
	if last.Aux != nil {
		t.Fatal("final module must have no aux head")
	}
	if last.OutShape[0] != 10 {
		t.Fatalf("final OutShape %v", last.OutShape)
	}
	for _, mod := range c.Modules[:len(c.Modules)-1] {
		if mod.Aux == nil {
			t.Fatalf("intermediate module %d lacks aux head", mod.Index)
		}
	}
}

func TestPartitionRespectsRminWhenFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := testModel(rng)
	full := memmodel.MemReqModel(m, 8).TotalBytes
	rmin := full / 4
	c := Partition(m, rmin, 8, rng)
	// Multi-atom modules must fit under Rmin (single-atom modules are kept
	// regardless, as in Algorithm 1).
	for i, mod := range c.Modules {
		if len(mod.Backbone.Layers) > 1 {
			// Removing the last atom then re-adding it was the partition
			// decision; verify the accepted candidate respected the bound.
			if c.RangeMemReq(i, i) >= rmin && len(mod.Backbone.Layers) > 1 {
				t.Fatalf("module %d (%d atoms) mem %d ≥ Rmin %d",
					i, len(mod.Backbone.Layers), c.RangeMemReq(i, i), rmin)
			}
		}
	}
}

func TestPartitionMonotoneInRmin(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := testModel(rng)
	full := memmodel.MemReqModel(m, 8).TotalBytes
	f := func(fracRaw uint8) bool {
		frac1 := 0.15 + float64(fracRaw%40)/100.0 // 0.15..0.54
		frac2 := frac1 + 0.2
		c1 := Partition(m, int64(frac1*float64(full)), 8, rng)
		c2 := Partition(m, int64(frac2*float64(full)), 8, rng)
		return len(c2.Modules) <= len(c1.Modules)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionDegeneratesToSingleModule(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := testModel(rng)
	full := memmodel.MemReqModel(m, 8).TotalBytes
	c := Partition(m, full*10, 8, rng)
	if len(c.Modules) != 1 {
		t.Fatalf("huge Rmin should yield 1 module, got %d", len(c.Modules))
	}
	if c.Modules[0].Aux != nil {
		t.Fatal("single module must be final")
	}
}

func TestForwardPrefixMatchesComposite(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := testModel(rng)
	full := memmodel.MemReqModel(m, 4).TotalBytes
	c := Partition(m, full/5, 4, rng)
	x := tensor.Randn(rng, 1, 2, 3, 16, 16)

	// Full forward through prefix then remaining modules equals whole model.
	mid := len(c.Modules) / 2
	z := c.ForwardPrefix(x, mid)
	for i := mid; i < len(c.Modules); i++ {
		z = c.Modules[i].Backbone.Forward(z, false)
	}
	want := m.Forward(x, false)
	for i := range want.Data {
		if math.Abs(z.Data[i]-want.Data[i]) > 1e-9 {
			t.Fatal("prefix+suffix forward disagrees with whole model")
		}
	}
}

func TestCompositeFullMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := testModel(rng)
	full := memmodel.MemReqModel(m, 4).TotalBytes
	c := Partition(m, full/5, 4, rng)
	x := tensor.Randn(rng, 1, 2, 3, 16, 16)
	a := c.Full().Forward(x, false)
	b := m.Forward(x, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("Composite(full) disagrees with the backbone model")
		}
	}
}

func TestEarlyExitLossGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := testModel(rng)
	full := memmodel.MemReqModel(m, 4).TotalBytes
	c := Partition(m, full/5, 4, rng)

	mod := 1
	z := tensor.Randn(rng, 0.5, 3, c.Modules[mod].InShape[0], c.Modules[mod].InShape[1], c.Modules[mod].InShape[2])
	labels := []int{0, 3, 7}
	mu := 1e-3

	// BatchNorm in eval mode needs warmed running stats for a fair check.
	c.EarlyExitLoss(z, labels, mod, mod, mu, true)

	_, grad := c.EarlyExitLoss(z, labels, mod, mod, mu, false)

	for trial := 0; trial < 10; trial++ {
		i := rng.Intn(z.Len())
		const h = 1e-5
		orig := z.Data[i]
		z.Data[i] = orig + h
		lp, _ := c.EarlyExitLoss(z, labels, mod, mod, mu, false)
		z.Data[i] = orig - h
		lm, _ := c.EarlyExitLoss(z, labels, mod, mod, mu, false)
		z.Data[i] = orig
		ng := (lp - lm) / (2 * h)
		if math.Abs(ng-grad.Data[i]) > 1e-4*(1+math.Abs(ng)) {
			t.Fatalf("early-exit grad mismatch at %d: numeric %g analytic %g", i, ng, grad.Data[i])
		}
	}
}

func TestStrongConvexityRegularizerIncreasesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := testModel(rng)
	full := memmodel.MemReqModel(m, 4).TotalBytes
	c := Partition(m, full/5, 4, rng)
	z := tensor.Randn(rng, 0.5, 2, c.Modules[0].InShape[0], c.Modules[0].InShape[1], c.Modules[0].InShape[2])
	labels := []int{1, 2}
	c.EarlyExitLoss(z, labels, 0, 0, 0, true) // warm BN
	l0, _ := c.EarlyExitLoss(z, labels, 0, 0, 0, false)
	l1, _ := c.EarlyExitLoss(z, labels, 0, 0, 1e-2, false)
	if l1 <= l0 {
		t.Fatalf("µ>0 must increase the loss unless features are zero: %g vs %g", l0, l1)
	}
}

func TestAdversarialStepReducesLossOverIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := nn.CNN3([]int{2, 8, 8}, 4, 4, rng)
	full := memmodel.MemReqModel(m, 8).TotalBytes
	c := Partition(m, full/3, 8, rng)
	if len(c.Modules) < 2 {
		t.Skip("partition produced a single module at this scale")
	}
	opt := nn.NewSGD(0.05, 0.9, 0)
	z := tensor.Uniform(rng, 0, 1, 8, 2, 8, 8)
	labels := []int{0, 1, 2, 3, 0, 1, 2, 3}
	atk := attack.FeaturePGDConfig(0.05, 3)

	first := c.AdversarialStep(z, labels, 0, 0, atk, 1e-5, opt, rng)
	var last float64
	for i := 0; i < 60; i++ {
		last = c.AdversarialStep(z, labels, 0, 0, atk, 1e-5, opt, rng)
	}
	if last >= first {
		t.Fatalf("adversarial training did not reduce module loss: %g -> %g", first, last)
	}
}

func TestMaxOutputPerturbationProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := testModel(rng)
	full := memmodel.MemReqModel(m, 4).TotalBytes
	c := Partition(m, full/5, 4, rng)
	z := tensor.Uniform(rng, 0, 1, 4, 3, 16, 16)

	// Warm BN stats of module 0.
	c.Modules[0].Backbone.Forward(z, true)

	small := MaxOutputPerturbation(c.Modules[0].Backbone, z, attack.Config{
		Eps: 0.01, StepSize: 0.005, Steps: 4, Norm: attack.L2, RandomStart: true, ClampMin: 1, ClampMax: 0,
	}, rng)
	large := MaxOutputPerturbation(c.Modules[0].Backbone, z, attack.Config{
		Eps: 0.2, StepSize: 0.1, Steps: 4, Norm: attack.L2, RandomStart: true, ClampMin: 1, ClampMax: 0,
	}, rng)
	if small < 0 || large < 0 {
		t.Fatal("perturbation magnitudes must be non-negative")
	}
	if large <= small {
		t.Fatalf("larger input ball must produce larger output perturbation: %g vs %g", small, large)
	}
	// Zero budget → (near) zero output perturbation.
	zero := MaxOutputPerturbation(c.Modules[0].Backbone, z, attack.Config{
		Eps: 0, StepSize: 0, Steps: 1, Norm: attack.L2, ClampMin: 1, ClampMax: 0,
	}, rng)
	if zero > 1e-9 {
		t.Fatalf("zero-eps perturbation should be ~0, got %g", zero)
	}
}

func TestRangeMemAndFLOPsExceedSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := testModel(rng)
	full := memmodel.MemReqModel(m, 8).TotalBytes
	c := Partition(m, full/5, 8, rng)
	if len(c.Modules) < 3 {
		t.Skip("need ≥3 modules")
	}
	if c.RangeMemReq(0, 1) <= c.RangeMemReq(0, 0) {
		t.Fatal("range memory must exceed a single module")
	}
	if c.RangeForwardFLOPs(0, 2) <= c.RangeForwardFLOPs(0, 1) {
		t.Fatal("range FLOPs must grow with more modules")
	}
}
