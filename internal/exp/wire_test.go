package exp

import (
	"context"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"fedprophet/internal/device"
	"fedprophet/internal/fl"
	"fedprophet/internal/fldist"
	"fedprophet/internal/nn"
)

// One federation, two transports: seeded trimmed-scale jFAT in process, then
// the same schedule replayed over a loopback synchronous fldist server (raw
// frames, quorum = cohort size, data-size push weights), must give the same
// model bit for bit. The replay draws its schedule through fl's Env.DrawRound
// on a fresh seed-7 environment — the very draws jFAT made — and the i-th
// sampled client of a round pushes as client ID i with that round's seed and
// learning rate, so the server's ascending-ID fold visits updates in the
// in-process loop's sampling order.
func TestWireTrainsInProcessModel(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	w, s := CIFAR10S(), TrimmedScale()
	params := ParamsFor(w, s)
	m, err := fl.NewMethod("jFAT", params)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(w, s, device.Balanced, 7)
	env.Parallelism = 2
	res, err := m.Run(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}

	env = NewEnv(w, s, device.Balanced, 7)
	init := params.BuildLarge(rand.New(rand.NewSource(env.Rng.Int63()))) // jFAT's model seed
	cohort := env.Cfg.ClientsPerRound
	srv := fldist.NewServer(nn.ExportParams(init), nn.ExportBNStats(init), cohort)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	clients := make([]*fldist.Client, cohort)
	for i := range clients {
		clients[i] = &fldist.Client{
			ID: i, BaseURL: ts.URL, HTTP: ts.Client(),
			Model: params.BuildLarge(rand.New(rand.NewSource(int64(i)))),
			Cfg:   env.Cfg, PGDSteps: env.Cfg.TrainPGD,
		}
	}
	for round := 0; round < env.Cfg.Rounds; round++ {
		r := env.DrawRound(round)
		if len(r.Clients) != cohort {
			t.Fatalf("round %d sampled %d clients, want %d", round, len(r.Clients), cohort)
		}
		errs := make([]error, cohort)
		var wg sync.WaitGroup
		for i, c := range clients {
			c.Subset = env.Subsets[r.Clients[i]]
			c.Rng = rand.New(rand.NewSource(r.Seeds[i]))
			wg.Add(1)
			go func(i int, c *fldist.Client) {
				defer wg.Done()
				errs[i] = c.RunRounds(context.Background(), 1, r.LR)
			}(i, c)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d, client %d: %v", round, i, err)
			}
		}
		if got := srv.Round(); got != round+1 {
			t.Fatalf("server at round %d after round %d's pushes, want %d", got, round, round+1)
		}
	}

	gotP, gotBN := srv.Snapshot()
	for _, v := range []struct {
		name      string
		wire, mem []float64
	}{
		{"parameters", gotP, nn.ExportParams(res.Model)},
		{"BN statistics", gotBN, nn.ExportBNStats(res.Model)},
	} {
		if len(v.wire) != len(v.mem) {
			t.Fatalf("%s: wire has %d values, in-process %d", v.name, len(v.wire), len(v.mem))
		}
		diff, first := 0, -1
		for j := range v.wire {
			if math.Float64bits(v.wire[j]) != math.Float64bits(v.mem[j]) {
				if diff++; first < 0 {
					first = j
				}
			}
		}
		if diff > 0 {
			t.Errorf("%s: %d of %d differ between wire and in-process (first at %d: %v vs %v)",
				v.name, diff, len(v.wire), first, v.wire[first], v.mem[first])
		}
	}
}
