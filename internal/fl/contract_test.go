package fl

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestRoundSeedsAdvanceParentIdentically(t *testing.T) {
	r1 := rand.New(rand.NewSource(5))
	r2 := rand.New(rand.NewSource(5))
	s1 := RoundSeeds(r1, 7)
	s2 := RoundSeeds(r2, 7)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("seed derivation must be deterministic")
		}
	}
	if r1.Int63() != r2.Int63() {
		t.Fatal("parent streams must stay in lock-step")
	}
}

func TestForEachClientDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []float64 {
		rng := rand.New(rand.NewSource(9))
		seeds := RoundSeeds(rng, 16)
		out := make([]float64, 16)
		err := ForEachClient(context.Background(), workers, 16, seeds, func(slot, i int, crng *rand.Rand) {
			v := 0.0
			for j := 0; j < 100; j++ {
				v += crng.NormFloat64()
			}
			out[i] = v
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := run(1)
	for _, w := range []int{2, 4, 16, 32} {
		par := run(w)
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("workers=%d: client %d diverged", w, i)
			}
		}
	}
}

func TestForEachClientSlotBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seeds := RoundSeeds(rng, 10)
	var maxSlot int64 = -1
	err := ForEachClient(context.Background(), 3, 10, seeds, func(slot, i int, _ *rand.Rand) {
		for {
			old := atomic.LoadInt64(&maxSlot)
			if int64(slot) <= old || atomic.CompareAndSwapInt64(&maxSlot, old, int64(slot)) {
				break
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&maxSlot); got >= 3 {
		t.Fatalf("slot %d out of worker bound 3", got)
	}
}

func TestForEachClientCancellationStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rng := rand.New(rand.NewSource(2))
	const n = 64
	seeds := RoundSeeds(rng, n)
	var ran int64
	err := ForEachClient(ctx, 2, n, seeds, func(slot, i int, _ *rand.Rand) {
		if atomic.AddInt64(&ran, 1) == 3 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("canceled pool must report the context error")
	}
	if atomic.LoadInt64(&ran) >= n {
		t.Fatal("cancellation must stop dispatching clients")
	}
}

func TestTrimmedMeanDropsOutliers(t *testing.T) {
	vecs := [][]float64{{1}, {2}, {3}, {1000}, {-1000}}
	got := TrimmedMean{Frac: 0.2}.Aggregate(vecs, nil)
	if got[0] != 2 {
		t.Fatalf("trimmed mean = %v, want 2 (outliers dropped)", got[0])
	}
}

func TestTrimmedMeanZeroFracIsMean(t *testing.T) {
	vecs := [][]float64{{1, 4}, {3, 8}}
	got := TrimmedMean{}.Aggregate(vecs, nil)
	if got[0] != 2 || got[1] != 6 {
		t.Fatalf("got %v, want unweighted mean [2 6]", got)
	}
}

func TestRoundRobinSamplerCoversFleet(t *testing.T) {
	s := &RoundRobinSampler{}
	seen := map[int]int{}
	for round := 0; round < 4; round++ {
		for _, k := range s.Sample(8, 2, nil) {
			seen[k]++
		}
	}
	if len(seen) != 8 {
		t.Fatalf("round-robin covered %d of 8 clients", len(seen))
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("client %d sampled %d times, want exactly 1", k, c)
		}
	}
}

func TestRegistryRegisterAndResolve(t *testing.T) {
	name := "test-only-method"
	registered := func() bool {
		for _, n := range MethodNames() {
			if n == name {
				return true
			}
		}
		return false
	}
	if registered() {
		t.Skip("already registered by a previous run")
	}
	RegisterMethod(name, func(p MethodParams) Method { return nil })
	if !registered() {
		t.Fatal("registered method missing from MethodNames")
	}
	if _, err := NewMethod("definitely-not-registered", MethodParams{}); err == nil {
		t.Fatal("unknown method must error")
	}
}

func TestEnvDefaultsMatchPaperBehaviour(t *testing.T) {
	e := &Env{Cfg: Config{NumClients: 10, ClientsPerRound: 4, Eps: 0.1}}
	if e.Workers() != 1 {
		t.Fatal("zero parallelism must mean sequential")
	}
	rng1 := rand.New(rand.NewSource(3))
	rng2 := rand.New(rand.NewSource(3))
	a := e.Sample(rng1)
	b := SampleClients(10, 4, rng2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("default sampler must be the uniform paper sampler")
		}
	}
	vecs := [][]float64{{2}, {4}}
	if e.Aggregate(vecs, []float64{1, 1})[0] != 3 {
		t.Fatal("default aggregator must be FedAvg")
	}
	atk := e.TrainAttackConfig(5)
	if atk.Steps != 5 || atk.Eps != 0.1 {
		t.Fatalf("default attack must be PGD with the configured budget, got %+v", atk)
	}
	if e.TrainAttackConfig(0).Steps != 0 {
		t.Fatal("zero steps must disable the attack")
	}
}
