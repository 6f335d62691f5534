package fl

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"fedprophet/internal/attack"
	"fedprophet/internal/data"
	"fedprophet/internal/device"
	"fedprophet/internal/simlat"
)

func TestRoundSeedsAdvanceParentIdentically(t *testing.T) {
	r1 := rand.New(rand.NewSource(5))
	r2 := rand.New(rand.NewSource(5))
	s1 := roundSeeds(r1, 7)
	s2 := roundSeeds(r2, 7)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("seed derivation must be deterministic")
		}
	}
	if r1.Int63() != r2.Int63() {
		t.Fatal("parent streams must stay in lock-step")
	}
}

// DrawRound is the one round schedule: cohort, then seeds, then one device
// snapshot per client in sampling order, all off Env.Rng, and ηt = γ^t·η0.
func TestDrawRoundOrderAndLR(t *testing.T) {
	const n, c = 12, 4
	fleet := device.NewFleet(device.CIFARPool(), n, device.Balanced, rand.New(rand.NewSource(1)))
	e := &Env{Fleet: fleet, Rng: rand.New(rand.NewSource(9)),
		Cfg: Config{NumClients: n, ClientsPerRound: c, LR: 1, LRDecay: 0.5}}
	if lr := e.DrawRound(0).LR; lr != 1 {
		t.Fatalf("η0 = %v, want 1", lr)
	}
	ref := rand.New(rand.NewSource(9))
	sampleClients(n, c, ref)
	roundSeeds(ref, c)
	for i := 0; i < c; i++ {
		fleet.Snapshot(0, ref)
	}
	r := e.DrawRound(2)
	if r.LR != 0.25 {
		t.Fatalf("η2 = %v, want 0.25", r.LR)
	}
	clients := sampleClients(n, c, ref)
	seeds := roundSeeds(ref, c)
	for i, k := range clients {
		if r.Clients[i] != k || r.Seeds[i] != seeds[i] || r.Devices[i] != fleet.Snapshot(k, ref) {
			t.Fatalf("client %d: drew (%d, %d, %+v), want (%d, %d) in the fixed order",
				i, r.Clients[i], r.Seeds[i], r.Devices[i], k, seeds[i])
		}
	}
	if e.Rng.Int63() != ref.Int63() {
		t.Fatal("DrawRound must consume exactly cohort, seeds and snapshots")
	}
}

func TestForEachClientDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []float64 {
		rng := rand.New(rand.NewSource(9))
		seeds := roundSeeds(rng, 16)
		out := make([]float64, 16)
		err := forEachClient(context.Background(), workers, 16, seeds, func(slot, i int, crng *rand.Rand) {
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
	seeds := roundSeeds(rng, 10)
	var maxSlot int64 = -1
	err := forEachClient(context.Background(), 3, 10, seeds, func(slot, i int, _ *rand.Rand) {
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
	seeds := roundSeeds(rng, n)
	var ran int64
	err := forEachClient(ctx, 2, n, seeds, func(slot, i int, _ *rand.Rand) {
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
	e := &Env{Cfg: Config{NumClients: 10, ClientsPerRound: 4, Eps: 0.1, TrainPGD: 5}}
	if e.ClientWorkers() != 1 {
		t.Fatal("zero parallelism must mean sequential")
	}
	vecs := [][]float64{{2}, {4}}
	if e.Aggregate(vecs, []float64{1, 1})[0] != 3 {
		t.Fatal("default aggregator must be FedAvg")
	}
	if atk := e.TrainAttackConfig(); atk != attack.PGDConfig(0.1, 5) {
		t.Fatalf("training attack must be PGD with the configured budget, got %+v", atk)
	}
	e.Cfg.TrainPGD = 0
	if e.TrainAttackConfig() != (attack.Config{}) {
		t.Fatal("zero steps must disable the attack")
	}
}

// driverEnv is a toy environment for the round driver: n clients, client k
// holding k%3 samples (so a third hold none), c sampled per round.
func driverEnv(n, c, par int) *Env {
	parent := &data.Dataset{Y: make([]int, 3*n), NumClasses: 1}
	subs := make([]*data.Subset, n)
	for k := range subs {
		subs[k] = &data.Subset{Parent: parent}
		for j := 0; j < k%3; j++ {
			subs[k].Indices = append(subs[k].Indices, 3*k+j)
		}
	}
	return &Env{
		Subsets: subs, Parallelism: par, Rng: rand.New(rand.NewSource(4)),
		Fleet: device.NewFleet(device.CIFARPool(), n, device.Balanced, rand.New(rand.NewSource(1))),
		Cfg:   Config{NumClients: n, ClientsPerRound: c, LR: 1, LRDecay: 1},
	}
}

// A toy client step: "trains" iff it holds data, reports its seat.
type seatOut struct {
	client, samples int
	budget          int64
	draw            int64
}

func toyTrain(s Seat) (seatOut, Client) {
	n := s.Data.Len()
	return seatOut{s.Round.Clients[s.Index], n, s.Budget, s.Rng.Int63()},
		Client{Loss: float64(n), Iters: n, Work: simlat.Work{FLOPs: int64(n) * 1e9}, UpBytes: int64(10 * n)}
}

// The driver hands every seat its own subset, calibrated budget and seeded
// RNG, folds only the clients that trained, in sampling order, and charges
// the round's loss, latency and upload bytes to the run — identically at any
// worker count.
func TestTrainRoundSeatsFoldAndAccounting(t *testing.T) {
	type roundLog struct {
		r    Round
		outs []seatOut
	}
	runRounds := func(par int) (*Run, []roundLog, int) {
		e := driverEnv(12, 6, par)
		hooks := 0
		e.Hook = func(RoundMetrics) { hooks++ }
		run := e.Start("toy", 1000)
		var log []roundLog
		for round := 0; round < 3; round++ {
			err := TrainRound(context.Background(), run, round, RoundMetrics{Module: 7}, toyTrain,
				func(r Round, outs []seatOut) { log = append(log, roundLog{r, append([]seatOut(nil), outs...)}) })
			if err != nil {
				t.Fatal(err)
			}
		}
		return run, log, hooks
	}
	run, log, hooks := runRounds(1)
	if hooks != 3 || len(run.History) != 3 {
		t.Fatalf("hook fired %d times, history %d, want 3 each", hooks, len(run.History))
	}
	cal := simlat.NewMemCalibration(driverEnv(12, 6, 1).Fleet.PoolMaxMemGB(), 1000)
	var up int64
	var lat simlat.Latency
	for i, l := range log {
		var want []seatOut
		lats := []simlat.Latency{}
		loss := 0.0
		for j, k := range l.r.Clients {
			n := k % 3
			lats = append(lats, simlat.ClientLatency(simlat.Work{FLOPs: int64(n) * 1e9}, l.r.Devices[j]))
			if n == 0 {
				continue
			}
			want = append(want, seatOut{k, n, cal.Budget(l.r.Devices[j].AvailMemGB), rand.New(rand.NewSource(l.r.Seeds[j])).Int63()})
			loss += float64(n)
			up += int64(10 * n)
		}
		if len(want) == 0 {
			t.Fatalf("round %d: toy cohort trained nobody; pick another seed", i)
		}
		if len(l.outs) != len(want) {
			t.Fatalf("round %d: fold saw %d outputs, want the %d clients that trained", i, len(l.outs), len(want))
		}
		for j := range want {
			if l.outs[j] != want[j] {
				t.Fatalf("round %d output %d: %+v, want %+v (sampling order)", i, j, l.outs[j], want[j])
			}
		}
		m := run.History[i]
		if m.Round != i || m.Module != 7 || m.Loss != loss/float64(len(want)) || m.Latency != simlat.RoundLatency(lats) {
			t.Fatalf("round %d metrics %+v, want loss %v latency %+v", i, m, loss/float64(len(want)), simlat.RoundLatency(lats))
		}
		lat.Add(m.Latency)
	}
	res, err := run.Finish(nil, context.Canceled)
	if !errors.Is(err, context.Canceled) || res.Latency != lat ||
		res.Extra["comm_up_bytes"] != float64(up) || res.Extra["mem_full_bytes"] != 1000 {
		t.Fatalf("Finish: err %v, latency %+v (want %+v), extra %v (want %d up bytes)", err, res.Latency, lat, res.Extra, up)
	}
	par, parLog, _ := runRounds(3)
	for i := range log {
		if par.History[i] != run.History[i] || len(parLog[i].outs) != len(log[i].outs) {
			t.Fatalf("round %d differs at 3 workers", i)
		}
		for j := range log[i].outs {
			if parLog[i].outs[j] != log[i].outs[j] {
				t.Fatalf("round %d output %d differs at 3 workers", i, j)
			}
		}
	}
}

// A round in which no sampled client holds data folds nothing and records
// loss 0.
func TestTrainRoundWithoutTrainedClientsSkipsFold(t *testing.T) {
	e := driverEnv(12, 6, 2)
	for _, s := range e.Subsets {
		s.Indices = nil
	}
	run := e.Start("toy", 1000)
	err := TrainRound(context.Background(), run, 0, RoundMetrics{}, toyTrain, func(Round, []seatOut) {
		t.Fatal("fold must not run when no client trained")
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.History) != 1 || run.History[0].Loss != 0 || run.upBytes != 0 {
		t.Fatalf("history %+v, upload %d; want one round at loss 0 and no upload", run.History, run.upBytes)
	}
}

// A canceled context ends the round before it is drawn: no fold, no record.
func TestTrainRoundCanceledDrawsNothing(t *testing.T) {
	e := driverEnv(12, 6, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run := e.Start("toy", 1000)
	ref := rand.New(rand.NewSource(4))
	err := TrainRound(ctx, run, 0, RoundMetrics{}, toyTrain, func(Round, []seatOut) { t.Fatal("fold ran") })
	if !errors.Is(err, context.Canceled) || len(run.History) != 0 || e.Rng.Int63() != ref.Int63() {
		t.Fatalf("err %v, history %d: a canceled round must draw and record nothing", err, len(run.History))
	}
}

// CycleBatches cycles one shuffled pass of batches until iters steps ran.
func TestCycleBatchesCyclesOnePass(t *testing.T) {
	idx := []int{0, 1, 2, 3, 4}
	rng := rand.New(rand.NewSource(3))
	batches := data.Batches(idx, 2, rand.New(rand.NewSource(3)))
	var seen [][]int
	loss, n := CycleBatches(idx, 2, 5, rng, func(it int, b []int) float64 {
		seen = append(seen, b)
		return float64(it)
	})
	if n != 5 || loss != 2 {
		t.Fatalf("ran %d steps, mean loss %v; want 5 and 2", n, loss)
	}
	for i, b := range seen {
		if fmt.Sprint(b) != fmt.Sprint(batches[i%len(batches)]) {
			t.Fatalf("step %d batch %v, want %v", i, b, batches[i%len(batches)])
		}
	}
	if loss, n := CycleBatches([]int{7}, 2, 5, rng, func(int, []int) float64 { return 1 }); n != 0 || loss != 0 {
		t.Fatalf("a subset with no batch ran %d steps", n)
	}
}
