package fedprophet_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fedprophet/internal/fldist"
	"fedprophet/pkg/fedprophet"
)

// fastOpts shrinks a run to a couple of seconds for API-contract tests.
func fastOpts(method string) []fedprophet.Option {
	return []fedprophet.Option{
		fedprophet.WithMethod(method),
		fedprophet.WithScale("trimmed"),
		fedprophet.WithSeed(3),
		fedprophet.WithClients(6),
		fedprophet.WithClientsPerRound(3),
		fedprophet.WithLocalIters(2),
	}
}

func TestRegistryHasPaperRoster(t *testing.T) {
	have := map[string]bool{}
	for _, name := range fedprophet.Methods() {
		have[name] = true
	}
	for _, want := range []string{
		"jFAT", "FedDF-AT", "FedET-AT", "HeteroFL-AT", "FedDrop-AT",
		"FedRolex-AT", "FedRBN", "FedProphet",
	} {
		if !have[want] {
			t.Fatalf("method %q missing from registry (have %v)", want, fedprophet.Methods())
		}
	}
}

func TestUnknownMethodWorkloadScaleErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := fedprophet.Run(ctx, fedprophet.WithMethod("NoSuchMethod")); err == nil {
		t.Fatal("unknown method must error")
	}
	if _, err := fedprophet.Run(ctx, fedprophet.WithWorkload("imagenet")); err == nil {
		t.Fatal("unknown workload must error")
	}
	if _, err := fedprophet.Run(ctx, fedprophet.WithScale("galactic")); err == nil {
		t.Fatal("unknown scale must error")
	}
}

func TestRoundHookOneEventPerRound(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const rounds = 3
	var events []fedprophet.RoundMetrics
	res, err := fedprophet.Run(context.Background(), append(fastOpts("jFAT"),
		fedprophet.WithRounds(rounds),
		fedprophet.WithRoundHook(func(m fedprophet.RoundMetrics) {
			events = append(events, m)
		}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != rounds {
		t.Fatalf("hook fired %d times, want %d", len(events), rounds)
	}
	if len(res.History) != rounds {
		t.Fatalf("history has %d rounds, want %d", len(res.History), rounds)
	}
	for i, m := range events {
		if m.Round != i {
			t.Fatalf("event %d reports round %d", i, m.Round)
		}
		if m != res.History[i] {
			t.Fatalf("streamed event %d differs from history entry", i)
		}
	}
	if res.Model == nil {
		t.Fatal("completed run must carry the trained model")
	}
}

func TestRoundChannelStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const rounds = 3
	ch := make(chan fedprophet.RoundMetrics, rounds)
	if _, err := fedprophet.Run(context.Background(), append(fastOpts("jFAT"),
		fedprophet.WithRounds(rounds),
		fedprophet.WithRoundChannel(ch),
	)...); err != nil {
		t.Fatal(err)
	}
	close(ch)
	got := 0
	for range ch {
		got++
	}
	if got != rounds {
		t.Fatalf("channel received %d events, want %d", got, rounds)
	}
}

func TestCancellationMidRoundReturnsPartialProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const rounds = 50 // far more than we let finish
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	start := time.Now()
	res, err := fedprophet.Run(ctx, append(fastOpts("jFAT"),
		fedprophet.WithRounds(rounds),
		fedprophet.WithRoundHook(func(m fedprophet.RoundMetrics) {
			if m.Round == 1 {
				cancel()
			}
		}),
	)...)
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("canceled run must return an error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error must wrap context.Canceled, got %v", err)
	}
	if res == nil {
		t.Fatal("canceled run must return the partial result")
	}
	if n := len(res.History); n < 2 || n >= rounds {
		t.Fatalf("partial history has %d rounds, want ≥2 and <%d", n, rounds)
	}
	// "Promptly": a full 50-round run takes tens of seconds; aborting after
	// round 1 must come back in a small fraction of that.
	if elapsed > 15*time.Second {
		t.Fatalf("cancellation took %v, not prompt", elapsed)
	}
}

func TestCancellationBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := fedprophet.Run(ctx, fastOpts("jFAT")...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx must surface context.Canceled, got %v", err)
	}
}

// The headline determinism guarantee: WithClientParallelism(4) reproduces
// the sequential run bit-for-bit for a fixed seed — identical accuracies
// and identical per-round loss/latency series.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, method := range []string{"jFAT", "FedRolex-AT", "FedProphet"} {
		run := func(par int) *fedprophet.Result {
			res, err := fedprophet.Run(context.Background(), append(fastOpts(method),
				fedprophet.WithRounds(3),
				fedprophet.WithRoundsPerModule(2),
				fedprophet.WithClientParallelism(par),
			)...)
			if err != nil {
				t.Fatalf("%s par=%d: %v", method, par, err)
			}
			return res
		}
		seq := run(1)
		par := run(4)

		if seq.CleanAcc != par.CleanAcc || seq.PGDAcc != par.PGDAcc || seq.AAAcc != par.AAAcc {
			t.Fatalf("%s: accuracies diverge: seq %v/%v/%v vs par %v/%v/%v", method,
				seq.CleanAcc, seq.PGDAcc, seq.AAAcc, par.CleanAcc, par.PGDAcc, par.AAAcc)
		}
		if len(seq.History) != len(par.History) {
			t.Fatalf("%s: history lengths diverge: %d vs %d", method, len(seq.History), len(par.History))
		}
		for i := range seq.History {
			if seq.History[i] != par.History[i] {
				t.Fatalf("%s: round %d telemetry diverges:\nseq %+v\npar %+v",
					method, i, seq.History[i], par.History[i])
			}
		}
		if seq.Extra["comm_up_bytes"] != par.Extra["comm_up_bytes"] {
			t.Fatalf("%s: communication accounting diverges", method)
		}
	}
}

func TestPluggableSubstrate(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// A robust aggregator, a deterministic sampler and a one-step attack
	// must all plug in without disturbing the run contract.
	res, err := fedprophet.Run(context.Background(), append(fastOpts("jFAT"),
		fedprophet.WithRounds(2),
		fedprophet.WithAggregator(fedprophet.TrimmedMean{Frac: 0.2}),
		fedprophet.WithSampler(&fedprophet.RoundRobinSampler{}),
		fedprophet.WithAttack(fedprophet.FGSMAttack{}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 2 {
		t.Fatalf("history has %d rounds, want 2", len(res.History))
	}
}

func TestStandardTrainingViaTrainPGDZero(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	res, err := fedprophet.Run(context.Background(), append(fastOpts("jFAT"),
		fedprophet.WithRounds(2),
		fedprophet.WithTrainPGD(0),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == nil {
		t.Fatal("standard training must still produce a model")
	}
}

// FedProphet (the default method) must honor the public attack contract:
// WithTrainPGD(0) and WithAttack(NoAttack) both disable input adversarial
// training, observable as a zero module-0 perturbation in the telemetry.
func TestFedProphetHonorsAttackOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	base := append(fastOpts("FedProphet"), fedprophet.WithRoundsPerModule(1))
	run := func(extra ...fedprophet.Option) *fedprophet.Result {
		res, err := fedprophet.Run(context.Background(), append(base, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.History) == 0 {
			t.Fatal("no rounds recorded")
		}
		return res
	}
	if adv := run(); adv.History[0].PerDimPert <= 0 {
		t.Fatalf("default run must adversarially train module 0, pert %v", adv.History[0].PerDimPert)
	}
	if clean := run(fedprophet.WithTrainPGD(0)); clean.History[0].PerDimPert != 0 {
		t.Fatalf("WithTrainPGD(0) must disable module-0 perturbation, got %v", clean.History[0].PerDimPert)
	}
	if noatk := run(fedprophet.WithAttack(fedprophet.NoAttack{})); noatk.History[0].PerDimPert != 0 {
		t.Fatalf("WithAttack(NoAttack) must disable module-0 perturbation, got %v", noatk.History[0].PerDimPert)
	}
}

// The public API must expose the buffered bounded-staleness aggregation
// mode: a ParamServer built with WithBufferedAggregation commits on buffer
// fill instead of a round quorum and reports the staleness histogram in
// ServerStats; a synchronous server's stats stay free of the async fields.
func TestParamServerBufferedAggregation(t *testing.T) {
	params := []float64{0.5, -1.25, 2.0, 0.0, 3.5}
	srv := fedprophet.NewParamServer(params, nil, 1,
		fedprophet.WithServerShards(2),
		fedprophet.WithBufferedAggregation(2, 1))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	push := func(id, round int) int {
		t.Helper()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(fldist.Update{
			ClientID: id, Round: round, Weight: 1,
			Params: []float64{0.1, 0.1, 0.1, 0.1, 0.1},
		}); err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/update", "application/octet-stream", &buf)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if st := push(0, 0); st != http.StatusOK {
		t.Fatalf("first push: status %d", st)
	}
	if srv.Round() != 0 {
		t.Fatal("round advanced before the buffer filled")
	}
	// The second update is one round stale relative to nothing yet — same
	// base round 0 — and fills the buffer: the commit happens with no
	// quorum barrier.
	if st := push(1, 0); st != http.StatusOK {
		t.Fatalf("second push: status %d", st)
	}
	if srv.Round() != 1 {
		t.Fatalf("round = %d after the buffer filled, want 1", srv.Round())
	}
	// A base-round-0 push is still inside the staleness window of 1.
	if st := push(2, 0); st != http.StatusOK {
		t.Fatalf("stale-but-in-window push: status %d", st)
	}

	stats := srv.Stats()
	if stats.Buffered == nil || stats.Buffered.BufferSize != 2 || stats.Buffered.MaxStaleness != 1 {
		t.Fatalf("buffered stats section not populated: %+v", stats.Buffered)
	}
	if hist := stats.Buffered.StalenessHist; len(hist) != 2 || hist[0] != 2 || hist[1] != 1 {
		t.Fatalf("staleness histogram = %v, want [2 1]", hist)
	}

	var syncStats fedprophet.ServerStats = fedprophet.NewParamServer(params, nil, 1).Stats()
	if syncStats.Buffered != nil {
		t.Fatalf("synchronous server leaked the buffered stats section: %+v", syncStats)
	}
}

// The transport-facing wire options must resolve to the exact codec a real
// fleet hands to fldist.Client, and must refuse to ride without a
// compressed codec underneath.
func TestWireCompressionOptions(t *testing.T) {
	comp, err := fedprophet.WireCompression(
		fedprophet.WithWireCompression(4, 128),
		fedprophet.WithWireTopK(50),
		fedprophet.WithWireDeltaPull(),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := fldist.Compression{Bits: 4, Chunk: 128, TopK: 50, Delta: true}
	if comp == nil || *comp != want {
		t.Fatalf("WireCompression = %+v, want %+v", comp, want)
	}

	// No compression configured: raw protocol, no codec.
	comp, err = fedprophet.WireCompression()
	if err != nil || comp != nil {
		t.Fatalf("raw WireCompression = %+v err %v, want nil/nil", comp, err)
	}

	// Top-k and delta-pull are codec parameters — without bits they must be
	// rejected, not silently dropped.
	if _, err := fedprophet.WireCompression(fedprophet.WithWireTopK(10)); err == nil {
		t.Fatal("WithWireTopK without WithWireCompression accepted")
	}
	if _, err := fedprophet.WireCompression(fedprophet.WithWireDeltaPull()); err == nil {
		t.Fatal("WithWireDeltaPull without WithWireCompression accepted")
	}
	if _, err := fedprophet.WireCompression(
		fedprophet.WithWireCompression(4, 0), fedprophet.WithWireTopK(-1)); err == nil {
		t.Fatal("negative top-k accepted")
	}
}
