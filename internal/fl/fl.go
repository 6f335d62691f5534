// Package fl provides the federated-learning core shared by FedProphet, every
// baseline and the wire client of internal/fldist: the experiment environment
// (federated data split, device fleet, hyperparameters), the round schedule
// (DrawRound: cohort, per-client seeds, device snapshots, learning rate), the
// one round driver every method runs (Env.Start, TrainRound, Run.Finish:
// cohort training on a bounded worker pool with calibrated memory
// budgets, the fold in sampling order, loss/latency/upload accounting,
// telemetry, cancellation and the final evaluation), the one batch loop
// (CycleBatches) under the local adversarial-SGD step (LocalTrain), weighted
// parameter aggregation (FedAvg), the Method/Result training contract and
// the method registry. A method supplies only its client step and its fold.
//
// The package is deterministic: sampling and per-client training randomness
// flow from explicit per-round seeds, never the global rand source, so a run
// is reproducible from its seed regardless of worker count or scheduling.
//
//lint:deterministic
package fl

import (
	"context"
	"math/rand"

	"fedprophet/internal/attack"
	"fedprophet/internal/data"
	"fedprophet/internal/device"
	"fedprophet/internal/nn"
	"fedprophet/internal/simlat"
)

// Config carries the training hyperparameters of §7.1 / Appendix B.4.
type Config struct {
	NumClients      int     // N
	ClientsPerRound int     // C
	Rounds          int     // total communication rounds
	LocalIters      int     // E local SGD iterations per round
	Batch           int     // B
	LR              float64 // η0
	LRDecay         float64 // γ, ηt = γ^t·η0
	Momentum        float64
	WeightDecay     float64

	// Adversarial training / evaluation.
	Eps         float64 // ε0 = 8/255
	TrainPGD    int     // PGD-n during training (10 in the paper)
	EvalPGD     int     // PGD-n at evaluation (20 in the paper)
	EvalAASteps int     // steps for the AutoAttack surrogate
	EvalBatch   int
}

// DefaultConfig returns the paper's hyperparameters scaled to the synthetic
// workloads (learning rate raised for the narrower models; round counts are
// set per experiment).
func DefaultConfig() Config {
	return Config{
		NumClients:      100,
		ClientsPerRound: 10,
		Rounds:          40,
		LocalIters:      30,
		Batch:           16,
		LR:              0.02,
		LRDecay:         0.994,
		Momentum:        0.9,
		WeightDecay:     1e-4,
		Eps:             8.0 / 255,
		TrainPGD:        10,
		EvalPGD:         20,
		EvalAASteps:     20,
		EvalBatch:       32,
	}
}

// Env is the full experimental environment handed to a Method. The
// execution-substrate fields are optional; their zero values reproduce the
// paper's behaviour (sequential clients, FedAvg). Clients are always drawn
// uniformly, and local adversarial training is always ℓ∞ PGD with
// Cfg.TrainPGD steps (TrainAttackConfig).
type Env struct {
	Train   *data.Dataset
	Subsets []*data.Subset // per-client local data
	Val     *data.Dataset  // server-side validation (APA monitoring)
	Test    *data.Dataset
	Public  *data.Dataset // public distillation set for the KD baselines
	Fleet   *device.Fleet
	Cfg     Config
	Rng     *rand.Rand

	// Parallelism bounds the worker pool that trains a round's sampled
	// clients concurrently. Values ≤ 1 train sequentially. For a fixed seed
	// the result is bit-identical at any parallelism level: every client
	// trains from its own deterministically derived RNG and updates are
	// aggregated in sampling order.
	Parallelism int
	// Hook streams each round's telemetry as it completes, in addition to
	// the accumulated Result.History. It is called synchronously from the
	// training loop, so long runs can be observed (and aborted via context)
	// mid-flight.
	Hook func(RoundMetrics)
	// Aggregator overrides FedAvg weighted averaging.
	Aggregator Aggregator
}

// ClientWorkers returns the client-training worker count — Parallelism, at
// least 1 — capped at the round cohort size: extra workers could never be
// scheduled, so callers avoid building model replicas for them.
func (e *Env) ClientWorkers() int {
	w := max(e.Parallelism, 1)
	if c := e.Cfg.ClientsPerRound; c > 0 && w > c {
		w = c
	}
	return w
}

// TrainAttackConfig is the local-training attack: the paper's ℓ∞ PGD at
// budget Cfg.Eps with Cfg.TrainPGD steps. TrainPGD ≤ 0 yields the zero
// config (standard training).
func (e *Env) TrainAttackConfig() attack.Config {
	if e.Cfg.TrainPGD <= 0 {
		return attack.Config{}
	}
	return attack.PGDConfig(e.Cfg.Eps, e.Cfg.TrainPGD)
}

// Aggregate combines client parameter vectors with the configured
// aggregator (FedAvg weighted averaging by default).
func (e *Env) Aggregate(vecs [][]float64, weights []float64) []float64 {
	if e.Aggregator != nil {
		return e.Aggregator.Aggregate(vecs, weights)
	}
	return WeightedAverage(vecs, weights)
}

// RoundMetrics records the per-round telemetry used by Figures 7 and 10.
type RoundMetrics struct {
	Round      int
	Loss       float64
	Latency    simlat.Latency
	PerDimPert float64 // ε per input dimension of the module under training (Fig. 10)
	Module     int     // module index under training (FedProphet)
}

// Result is what a Method reports after training.
type Result struct {
	Method   string
	CleanAcc float64
	PGDAcc   float64
	AAAcc    float64
	Latency  simlat.Latency // accumulated synchronous round latency
	History  []RoundMetrics
	Extra    map[string]float64
	// Model is the trained global model (nil when the run was canceled
	// before any aggregation finished).
	Model nn.Layer
}

// Method is a federated training algorithm. Run trains until the configured
// round budget is exhausted or ctx is canceled; on cancellation it returns
// the partial result accumulated so far together with an error wrapping
// ctx.Err() (see Run.Finish).
type Method interface {
	Name() string
	Run(ctx context.Context, env *Env) (*Result, error)
}

// sampleClients draws c distinct client indices out of n.
func sampleClients(n, c int, rng *rand.Rand) []int {
	if c > n {
		c = n
	}
	perm := rng.Perm(n)
	out := append([]int(nil), perm[:c]...)
	return out
}

// WeightedAverage aggregates parameter vectors with the given non-negative
// weights (FedAvg, Eq. 1): result = Σ qk·vk / Σ qk — FoldAverage over the
// whole vector.
func WeightedAverage(vecs [][]float64, weights []float64) []float64 {
	if len(vecs) == 0 {
		return nil
	}
	if len(vecs) != len(weights) {
		panic("fl: vectors and weights length mismatch")
	}
	n := len(vecs[0])
	for k, v := range vecs {
		if len(v) != n {
			panic("fl: inconsistent vector lengths")
		}
		if weights[k] < 0 {
			panic("fl: negative weight")
		}
	}
	out := make([]float64, n)
	FoldAverage(out, vecs, weights, 0, n)
	return out
}

// The fold family. Each fold writes one index range [lo, hi) of its result
// into out[lo:hi], which must arrive zeroed, and runs one fixed IEEE-754
// sequence per element — accumulate in vecs order, then scale by the
// reciprocal of the weight sum — so a fold over a range is bit-identical to
// the same range of a fold over the whole vector. That is what lets the
// parameter server (internal/fldist), folding a commit over contiguous
// ranges concurrently, reproduce the in-process aggregate exactly. The two folds are different
// sequences (the delta fold subtracts before it weights), so neither is
// expressed through the other.

// FoldAverage is the FedAvg fold Σₖ wₖ·vₖ / Σₖ wₖ over [lo, hi). A zero weight
// sum leaves the zeros.
func FoldAverage(out []float64, vecs [][]float64, weights []float64, lo, hi int) {
	o := out[lo:hi]
	total := 0.0
	for k, v := range vecs {
		w := weights[k]
		total += w
		for i, x := range v[lo:hi] {
			o[i] += w * x
		}
	}
	if total == 0 {
		return
	}
	inv := 1.0 / total
	for i := range o {
		o[i] *= inv
	}
}

// FoldDelta is the FedBuff fold g + Σₖ wₖ·(vₖ − baseₖ) / Σₖ wₖ over [lo, hi):
// each update applied as its weighted delta against the base it trained
// from, onto the current model g. A zero weight sum copies g.
func FoldDelta(out, g []float64, vecs, bases [][]float64, weights []float64, lo, hi int) {
	o := out[lo:hi]
	total := 0.0
	for k, v := range vecs {
		w, b := weights[k], bases[k][lo:hi]
		total += w
		for i, x := range v[lo:hi] {
			o[i] += w * (x - b[i])
		}
	}
	g = g[lo:hi]
	if total == 0 {
		copy(o, g)
		return
	}
	inv := 1.0 / total
	for i := range o {
		o[i] = g[i] + o[i]*inv
	}
}
