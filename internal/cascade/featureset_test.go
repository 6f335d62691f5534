package cascade

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"fedprophet/internal/attack"
	"fedprophet/internal/data"
	"fedprophet/internal/memmodel"
	"fedprophet/internal/nn"
)

// featureCase is one backbone with a synthetic training set in its input
// shape and batch-norm statistics warmed away from their initial values.
type featureCase struct {
	name  string
	build func(rng *rand.Rand) *nn.Model
	shape []int
}

var featureCases = []featureCase{
	{"VGG16S", func(rng *rand.Rand) *nn.Model { return nn.VGG16S([]int{3, 16, 16}, 10, 4, rng) }, []int{3, 16, 16}},
	{"ResNet34S", func(rng *rand.Rand) *nn.Model { return nn.ResNet34S([]int{3, 24, 24}, 32, 2, rng) }, []int{3, 24, 24}},
}

func (fc featureCase) cascade(t *testing.T) (*Cascade, *data.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	m := fc.build(rng)
	c := Partition(m, memmodel.MemReqModel(m, 8).TotalBytes/5, 8, rng)
	if len(c.Modules) < 3 {
		t.Fatalf("%s: want a multi-stage cascade, got %d modules", fc.name, len(c.Modules))
	}
	train, _ := data.Generate(data.SyntheticConfig{
		Name: "feat", Classes: 4, Shape: fc.shape, TrainPerClass: 9, TestPerClass: 1,
		NoiseStd: 0.1, MixMax: 0.3, Seed: 5,
	})
	warm, _ := data.Batch(train, []int{0, 1, 2, 3, 4, 5, 6, 7})
	m.Forward(warm, true)
	return c, train
}

// Stage-m rows must be bit-equal to ForwardPrefix(x, m) whatever batch the
// sample is drawn into — that is what lets the client loop read them in place
// of the prefix forward without moving a single bit of the trained model.
func TestStageFeatureSetsBitEqualForwardPrefix(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, fc := range featureCases {
		for _, procs := range []int{4, 1} {
			runtime.GOMAXPROCS(procs)
			c, train := fc.cascade(t)
			rng := rand.New(rand.NewSource(17))
			set := train
			for m := 1; m < len(c.Modules); m++ {
				// 13 does not divide |Train|: the last mapped batch is partial.
				set = MapFeatures(c.Modules[m-1].Backbone, set, 13)
				if set.Len() != train.Len() || !slices.Equal(set.InShape, c.Modules[m].InShape) {
					t.Fatalf("%s stage %d: set of %d rows shaped %v, want %d shaped %v",
						fc.name, m, set.Len(), set.InShape, train.Len(), c.Modules[m].InShape)
				}
				for _, bs := range []int{2, 8, train.Len()} {
					for _, b := range data.Batches(rng.Perm(train.Len()), bs, rng) {
						x, wantY := data.Batch(train, b)
						want := c.ForwardPrefix(x, m)
						got, gotY := data.Batch(set, b)
						if !slices.Equal(gotY, wantY) {
							t.Fatalf("%s stage %d: labels diverge", fc.name, m)
						}
						if !got.SameShape(want) {
							t.Fatalf("%s stage %d: shape %v, want %v", fc.name, m, got.Shape(), want.Shape())
						}
						for i := range want.Data {
							if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
								t.Fatalf("%s stage %d procs %d batch %d: z[%d] = %v, ForwardPrefix gives %v",
									fc.name, m, procs, bs, i, got.Data[i], want.Data[i])
							}
						}
					}
				}
			}
		}
	}
}

// One stage set is shared by every client worker of a round. Each worker owns
// its cascade replica and only reads the set; run under -race this pins that
// nothing on the training path writes to it, and the per-worker losses must
// match a sequential pass over the same batches.
func TestStageFeatureSetSharedAcrossWorkers(t *testing.T) {
	fc := featureCases[0]
	server, train := fc.cascade(t)
	const stage = 1
	set := MapFeatures(server.Modules[0].Backbone, train, 16)
	before := make([]float64, 0, set.Len()*set.X[0].Len())
	for _, x := range set.X {
		before = append(before, x.Data...)
	}

	step := func(c *Cascade, worker int) float64 {
		rng := rand.New(rand.NewSource(int64(100 + worker)))
		opt := nn.NewSGD(0.05, 0.9, 0)
		loss := 0.0
		for _, b := range data.Batches(rng.Perm(set.Len()), 8, rng)[:3] {
			z, y := data.Batch(set, b)
			loss += c.AdversarialStep(z, y, stage, stage+1, attack.FeaturePGDConfig(0.1, 2), 1e-5, opt, rng)
		}
		return loss
	}

	const workers = 4
	want := make([]float64, workers)
	replicas := make([]*Cascade, workers)
	for w := range want {
		c, _ := fc.cascade(t)
		want[w] = step(c, w)
		replicas[w], _ = fc.cascade(t)
	}
	got := make([]float64, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = step(replicas[w], w)
		}(w)
	}
	wg.Wait()
	for w := range want {
		if got[w] != want[w] {
			t.Fatalf("worker %d: concurrent loss %v, sequential %v", w, got[w], want[w])
		}
	}
	after := before[:0:0]
	for _, x := range set.X {
		after = append(after, x.Data...)
	}
	for i := range before {
		if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
			t.Fatalf("training wrote to the shared stage set at element %d", i)
		}
	}
}

// Feature-space attack steps differentiate the early-exit loss in eval mode:
// they must leave every parameter gradient of the range untouched.
func TestFeatureGradFnLeavesParamGradsUntouched(t *testing.T) {
	c, train := featureCases[0].cascade(t)
	const sentinel = 4321.5
	params := c.RangeParams(0, 1)
	for _, p := range params {
		p.Grad.Fill(sentinel)
	}
	x, y := data.Batch(train, []int{0, 1, 2, 3})
	attack.Perturb(attack.FeaturePGDConfig(0.1, 2), x, c.FeatureGradFn(y, 0, 1, 1e-5), rand.New(rand.NewSource(1)))
	MaxOutputPerturbation(c.Modules[0].Backbone, x, attack.PGDConfig(8.0/255, 2), rand.New(rand.NewSource(2)))
	for _, p := range params {
		for i, g := range p.Grad.Data {
			if g != sentinel {
				t.Fatalf("%s grad[%d] = %v after attack passes, want the sentinel", p.Name, i, g)
			}
		}
	}
}
