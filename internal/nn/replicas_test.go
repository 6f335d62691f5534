package nn

import (
	"math/rand"
	"runtime"
	"testing"

	"fedprophet/internal/tensor"
)

// An eval-mode batch split across identically loaded replicas must move no
// bit: forward output and input gradient equal one replica running the whole
// batch — for every replica count, with uneven slices and with fewer samples
// than replicas — and no parameter gradient is touched. Train mode panics.
func TestReplicasBitEqualOneModel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	shape := []int{3, 16, 16}
	for _, mc := range []struct {
		name  string
		build func(rng *rand.Rand) *Model
	}{
		{"VGG16S", func(rng *rand.Rand) *Model { return VGG16S(shape, 10, 4, rng) }},
		{"ResNet34S", func(rng *rand.Rand) *Model { return ResNet34S(shape, 8, 2, rng) }},
		{"CNN3", func(rng *rand.Rand) *Model { return CNN3(shape, 10, 4, rng) }},
	} {
		rng := rand.New(rand.NewSource(5))
		ref := mc.build(rng)
		ref.Forward(tensor.Uniform(rng, 0, 1, append([]int{8}, shape...)...), true)
		params, stats := ExportParams(ref), ExportBNStats(ref)
		replica := func(seed int64) *Model {
			m := mc.build(rand.New(rand.NewSource(seed)))
			ImportParams(m, params)
			ImportBNStats(m, stats)
			fillGrads(m, gradSentinel)
			return m
		}
		one := replica(100)
		reps := make([]Layer, 4)
		for i := range reps {
			reps[i] = replica(200 + int64(i))
		}

		for _, procs := range []int{4, 1} {
			runtime.GOMAXPROCS(procs)
			for _, bsz := range []int{1, 3, 8, 16} {
				x := tensor.Uniform(rng, 0, 1, append([]int{bsz}, shape...)...)
				want := one.Forward(x, false).Clone()
				g := tensor.Randn(rng, 1, want.Shape()...)
				wantDX := one.Backward(g.Clone()).Clone()
				for w := 1; w <= len(reps); w++ {
					r := NewReplicas(reps[:w]...)
					got := r.Forward(x, false)
					if !got.SameShape(want) {
						t.Fatalf("%s: %d replicas, batch %d: output shape %v, want %v", mc.name, w, bsz, got.Shape(), want.Shape())
					}
					requireBitEqual(t, mc.name+" output", got.Data, want.Data)
					dx := r.Backward(g.Clone())
					if !dx.SameShape(x) {
						t.Fatalf("%s: %d replicas, batch %d: dX shape %v, want %v", mc.name, w, bsz, dx.Shape(), x.Shape())
					}
					requireBitEqual(t, mc.name+" dX", dx.Data, wantDX.Data)
				}
			}
		}
		for _, l := range append(reps, one) {
			requireGradsUntouched(t, l)
		}

		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: a train-mode Forward through Replicas must panic", mc.name)
				}
			}()
			NewReplicas(reps...).Forward(tensor.New(append([]int{4}, shape...)...), true)
		}()
	}
}
