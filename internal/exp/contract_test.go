package exp

import (
	"context"
	"errors"
	"testing"

	"fedprophet/internal/device"
	"fedprophet/internal/fl"
)

// trainSeeded trains a registered method on the seeded trimmed-scale
// environment, after edit (if any) adjusts it.
func trainSeeded(t *testing.T, ctx context.Context, method string, s Scale, edit func(*fl.Env)) (*fl.Result, error) {
	t.Helper()
	w := CIFAR10S()
	m, err := fl.NewMethod(method, ParamsFor(w, s))
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(w, s, device.Balanced, 7)
	env.Parallelism = 2
	if edit != nil {
		edit(env)
	}
	return m.Run(ctx, env)
}

// A client that holds no data trains no iteration and uploads nothing, so a
// round of such clients folds nothing: every method must end with the model
// it started from, not an average over zero weights.
func TestEmptyCohortKeepsGlobalModel(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	s := TrimmedScale()
	s.Rounds, s.RoundsPerModule = 2, 1
	emptied := func(env *fl.Env) {
		for _, sub := range env.Subsets {
			sub.Indices = nil
		}
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, method := range fl.MethodNames() {
		initial, err := trainSeeded(t, canceled, method, s, nil)
		if !errors.Is(err, context.Canceled) || initial.Model == nil {
			t.Fatalf("%s: a run canceled before its first round must return its initial model, got %v", method, err)
		}
		res, err := trainSeeded(t, context.Background(), method, s, emptied)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if got, want := modelDigest(res.Model), modelDigest(initial.Model); got != want {
			t.Errorf("%s: model digest %#016x after rounds of data-less clients, want the initial %#016x", method, got, want)
		}
		for _, m := range res.History {
			if m.Loss != 0 {
				t.Errorf("%s: round %d loss %v, want 0 with no client trained", method, m.Round, m.Loss)
			}
		}
		if up := res.Extra["comm_up_bytes"]; up != 0 {
			t.Errorf("%s: %v upload bytes with no client trained", method, up)
		}
	}
}

// The cancellation contract, for every method: canceled from the Hook at
// round 1, a run returns an error wrapping context.Canceled, the two
// completed rounds, their memory and upload accounting, and — for the
// baselines, whose round count is the configured one — the global model of
// an uncanceled two-round run.
func TestCancellationContractEveryMethod(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	s := TrimmedScale()
	two := s
	two.Rounds = 2
	for _, method := range fl.MethodNames() {
		ctx, cancel := context.WithCancel(context.Background())
		res, err := trainSeeded(t, ctx, method, s, func(env *fl.Env) {
			env.Hook = func(m fl.RoundMetrics) {
				if m.Round == 1 {
					cancel()
				}
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error %v, want one wrapping context.Canceled", method, err)
		}
		if len(res.History) != 2 {
			t.Fatalf("%s: %d rounds in History, want 2", method, len(res.History))
		}
		if _, ok := res.Extra["mem_full_bytes"]; !ok || res.Extra["comm_up_bytes"] <= 0 {
			t.Fatalf("%s: Extra %v must carry mem_full_bytes and comm_up_bytes > 0", method, res.Extra)
		}
		if method == "FedProphet" {
			continue
		}
		full, err := trainSeeded(t, context.Background(), method, two, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := modelDigest(res.Model), modelDigest(full.Model); got != want {
			t.Errorf("%s: canceled model %#016x, want the two-round run's %#016x", method, got, want)
		}
	}
}
