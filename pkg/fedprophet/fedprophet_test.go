package fedprophet_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fedprophet/internal/core"
	"fedprophet/internal/device"
	"fedprophet/internal/exp"
	"fedprophet/internal/nn"
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
// and identical per-round loss/latency series — for every registered method
// on CIFAR10-S, and for jFAT and FedProphet on Caltech256-S, whose ResNet34-S
// replicas run residual blocks on every worker. FedProphet's server passes
// split their eval batches across those replicas, so its subtests also pin
// that split (unsplit at 1 worker, one slice per core at 4).
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	type subtest struct{ name, method, workload string }
	var subtests []subtest
	for _, method := range fedprophet.Methods() {
		subtests = append(subtests, subtest{method, method, "cifar"})
	}
	subtests = append(subtests, subtest{"caltech/jFAT", "jFAT", "caltech"}, subtest{"caltech/FedProphet", "FedProphet", "caltech"})
	for _, st := range subtests {
		t.Run(st.name, func(t *testing.T) {
			run := func(par int) *fedprophet.Result {
				res, err := fedprophet.Run(context.Background(), append(fastOpts(st.method),
					fedprophet.WithWorkload(st.workload),
					fedprophet.WithRounds(3),
					fedprophet.WithRoundsPerModule(2),
					fedprophet.WithClientParallelism(par),
				)...)
				if err != nil {
					t.Fatalf("par=%d: %v", par, err)
				}
				return res
			}
			seq := run(1)
			par := run(4)

			if seq.CleanAcc != par.CleanAcc || seq.PGDAcc != par.PGDAcc || seq.AAAcc != par.AAAcc {
				t.Fatalf("accuracies diverge: seq %v/%v/%v vs par %v/%v/%v",
					seq.CleanAcc, seq.PGDAcc, seq.AAAcc, par.CleanAcc, par.PGDAcc, par.AAAcc)
			}
			if len(seq.History) != len(par.History) {
				t.Fatalf("history lengths diverge: %d vs %d", len(seq.History), len(par.History))
			}
			for i := range seq.History {
				if seq.History[i] != par.History[i] {
					t.Fatalf("round %d telemetry diverges:\nseq %+v\npar %+v", i, seq.History[i], par.History[i])
				}
			}
			if seq.Extra["comm_up_bytes"] != par.Extra["comm_up_bytes"] {
				t.Fatal("communication accounting diverges")
			}
		})
	}
}

func TestPluggableSubstrate(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// A robust aggregator must plug in without disturbing the run contract.
	res, err := fedprophet.Run(context.Background(), append(fastOpts("jFAT"),
		fedprophet.WithRounds(2),
		fedprophet.WithAggregator(fedprophet.TrimmedMean{Frac: 0.2}),
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
// WithTrainPGD(0) disables adversarial training on every module — input
// PGD on module 0 and feature PGD on the later ones — observable as a zero
// perturbation in every round's telemetry, while the default run reports a
// positive one in every round.
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
		if n := len(res.History); n < 2 || res.History[n-1].Module == 0 {
			t.Fatalf("want rounds past module 0, history %+v", res.History)
		}
		return res
	}
	res := run()
	for _, h := range res.History {
		if h.PerDimPert <= 0 {
			t.Fatalf("default run must adversarially train module %d, pert %v", h.Module, h.PerDimPert)
		}
	}
	if p := res.Extra["pert_z1"]; p <= 0 {
		t.Fatalf("default run must collect module 0's output perturbation, pert_z1 = %v", p)
	}
	res = run(fedprophet.WithTrainPGD(0))
	for _, h := range res.History {
		if h.PerDimPert != 0 {
			t.Fatalf("WithTrainPGD(0) must disable module %d's perturbation, got %v", h.Module, h.PerDimPert)
		}
	}
	if p, ok := res.Extra["pert_z1"]; ok {
		t.Fatalf("WithTrainPGD(0) runs no attack, so it must not collect pert_z1, got %v", p)
	}
}

// modelDigest hashes every parameter and batch-norm statistic bit for bit.
func modelDigest(l nn.Layer) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, vec := range [][]float64{nn.ExportParams(l), nn.ExportBNStats(l)} {
		for _, x := range vec {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// WithAPA and WithDMA reach FedProphet unchanged: Run with the defaults, and
// with both switched off, trains the same model bit for bit as core.New on
// the registry's parameters (exp.ParamsFor) with the same two switches.
func TestAPADMASwitchesReachFedProphet(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	s := exp.TrimmedScale()
	s.NumClients, s.ClientsPerRound, s.LocalIters, s.RoundsPerModule = 6, 3, 2, 1
	w := exp.CIFAR10S()
	digests := map[bool]uint64{}
	for _, on := range []bool{true, false} {
		opts := append(fastOpts("FedProphet"), fedprophet.WithRoundsPerModule(1))
		if !on {
			opts = append(opts, fedprophet.WithAPA(false), fedprophet.WithDMA(false))
		}
		res, err := fedprophet.Run(context.Background(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		p := exp.ParamsFor(w, s)
		p.UseAPA, p.UseDMA = on, on
		want, err := core.New(p).Run(context.Background(), exp.NewEnv(w, s, device.Balanced, 3))
		if err != nil {
			t.Fatal(err)
		}
		got, ref := modelDigest(res.Model), modelDigest(want.Model)
		if got != ref {
			t.Fatalf("APA/DMA %v: Run trained model %016x, core.New on ParamsFor %016x", on, got, ref)
		}
		digests[on] = got
	}
	if digests[true] == digests[false] {
		t.Fatal("switching APA and DMA off left the model unchanged")
	}
}

// The public API must expose the buffered bounded-staleness aggregation
// mode: a ParamServer built with WithBufferedAggregation commits on buffer
// fill instead of a round quorum and reports the staleness histogram in
// ServerStats; a synchronous server's stats stay free of the async fields.
func TestParamServerBufferedAggregation(t *testing.T) {
	params := []float64{0.5, -1.25, 2.0, 0.0, 3.5}
	srv := fedprophet.NewParamServer(params, nil, 1,
		fedprophet.WithBufferedAggregation(2, 1))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	push := func(id, round int) int {
		t.Helper()
		body := fedprophet.RawUpdateBody(id, round, 1, []float64{0.1, 0.1, 0.1, 0.1, 0.1}, nil)
		resp, err := ts.Client().Post(ts.URL+"/update", "application/x-fldist-delta", bytes.NewReader(body))
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

// The public durability surface: a buffered server built WithServerWAL logs
// its partial buffer, ParamServerWALExists sees the log, RecoverParamServer
// resumes at the same round with the pending update, and HandoffParamServer
// returns its ctx's error while the recovered server holds the log.
func TestParamServerWALSurface(t *testing.T) {
	dir := t.TempDir()
	params := []float64{0.5, -1.25, 2.0, 0.0, 3.5}
	push := func(srv *fedprophet.ParamServer, id int) {
		t.Helper()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		body := fedprophet.RawUpdateBody(id, srv.Round(), 1, []float64{0.1, 0.1, 0.1, 0.1, 0.1}, nil)
		resp, err := ts.Client().Post(ts.URL+"/update", "application/x-fldist-delta", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("push %d: status %d", id, resp.StatusCode)
		}
	}
	srv := fedprophet.NewParamServer(params, nil, 1,
		fedprophet.WithBufferedAggregation(2, 1), fedprophet.WithServerWAL(dir))
	for id := range 3 { // a full buffer commits round 1; the third update stays pending
		push(srv, id)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if !fedprophet.ParamServerWALExists(dir) {
		t.Fatal("ParamServerWALExists is false after a WAL-backed server ran")
	}

	rec, err := fedprophet.RecoverParamServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if st := rec.Stats(); rec.Round() != 1 || st.WAL == nil || st.WAL.PendingAdmits != 1 {
		t.Fatalf("recovered at round %d with WAL stats %+v, want round 1 with 1 pending update", rec.Round(), st.WAL)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if s, err := fedprophet.HandoffParamServer(ctx, dir); !errors.Is(err, context.Canceled) {
		t.Fatalf("handoff under a canceled ctx while the log is held: %v, %v; want context.Canceled", s, err)
	}
	// The replayed update is in the buffer: one more push fills it.
	push(rec, 3)
	if rec.Round() != 2 {
		t.Fatalf("round %d after filling the recovered buffer, want 2", rec.Round())
	}
}
