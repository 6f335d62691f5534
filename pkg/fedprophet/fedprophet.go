// Package fedprophet is the public API of the FedProphet reproduction: a
// context-aware Runner for memory-heterogeneous federated adversarial
// training, a registry of training methods, pluggable aggregation/sampling/
// attack strategies, streaming per-round telemetry, and parallel client
// execution.
//
// The minimal run is three lines:
//
//	res, err := fedprophet.Run(ctx, fedprophet.WithMethod("FedProphet"))
//	if err != nil { ... }
//	fmt.Println(res.CleanAcc, res.PGDAcc)
//
// Everything is configured through functional options. A fuller example:
//
//	res, err := fedprophet.Run(ctx,
//	    fedprophet.WithMethod("jFAT"),
//	    fedprophet.WithWorkload("cifar"),
//	    fedprophet.WithScale("quick"),
//	    fedprophet.WithSeed(7),
//	    fedprophet.WithRounds(20),
//	    fedprophet.WithClientParallelism(4),
//	    fedprophet.WithRoundHook(func(m fedprophet.RoundMetrics) {
//	        log.Printf("round %d loss %.4f", m.Round, m.Loss)
//	    }),
//	)
//
// Runs are deterministic for a fixed seed: WithClientParallelism(N) trains
// a round's clients on N workers and reproduces the sequential result
// bit-for-bit. Canceling ctx aborts at the next round boundary and returns
// the partial result together with an error wrapping context.Canceled.
//
// Training methods self-register (the paper's eight methods are always
// available); external methods plug in via Register.
package fedprophet

import (
	"context"
	"fmt"

	"fedprophet/internal/device"
	"fedprophet/internal/exp"
	"fedprophet/internal/fl"
)

// Re-exported contract types. The interfaces are satisfied by user code to
// customize the execution substrate; the data types carry results and
// telemetry.
type (
	// Result is the outcome of a training run: final clean/PGD/AutoAttack
	// accuracy, accumulated simulated latency, per-round history, method
	// extras, and the trained global model.
	Result = fl.Result
	// RoundMetrics is one round of streaming telemetry.
	RoundMetrics = fl.RoundMetrics
	// Method is a federated training algorithm; implement it to Register
	// your own.
	Method = fl.Method
	// MethodParams is what a registered factory receives: model builders
	// plus coordinator hyperparameters.
	MethodParams = fl.MethodParams
	// MethodFactory instantiates a Method for one workload.
	MethodFactory = fl.MethodFactory
	// Aggregator combines client updates into the next global model.
	Aggregator = fl.Aggregator
	// ClientSampler selects each round's participating clients.
	ClientSampler = fl.ClientSampler
	// Attack builds the local adversarial-training attack.
	Attack = fl.Attack
)

// Built-in execution-substrate implementations, ready to pass to
// WithAggregator / WithSampler / WithAttack.
type (
	// FedAvg is data-size weighted averaging (the paper default).
	FedAvg = fl.FedAvg
	// TrimmedMean is a Byzantine-robust coordinate-wise trimmed mean.
	TrimmedMean = fl.TrimmedMean
	// UniformSampler draws clients uniformly without replacement.
	UniformSampler = fl.UniformSampler
	// RoundRobinSampler cycles deterministically through the fleet.
	RoundRobinSampler = fl.RoundRobinSampler
	// PGDAttack is ℓ∞ projected gradient descent (the paper default).
	PGDAttack = fl.PGDAttack
	// FGSMAttack is single-step FGSM.
	FGSMAttack = fl.FGSMAttack
	// NoAttack disables adversarial training (standard federated SGD).
	NoAttack = fl.NoAttack
)

// Register adds a named training method to the global registry, making it
// resolvable by WithMethod(name) everywhere — commands included.
// Registering an existing name panics.
func Register(name string, factory MethodFactory) {
	fl.RegisterMethod(name, factory)
}

// Methods lists the registered training methods in sorted order.
func Methods() []string { return fl.MethodNames() }

// Workloads lists the accepted WithWorkload names.
func Workloads() []string { return []string{"cifar", "caltech"} }

// Scales lists the accepted WithScale names.
func Scales() []string { return []string{"quick", "trimmed", "full"} }

// Runner executes federated training runs. A Runner carries a base option
// set; Run merges per-call options on top, so one Runner can launch many
// related experiments. The zero Runner is valid and runs the paper-default
// FedProphet configuration.
type Runner struct {
	base []Option
}

// NewRunner returns a Runner with the given base options.
func NewRunner(opts ...Option) *Runner { return &Runner{base: opts} }

// Run is a convenience wrapper for NewRunner(opts...).Run(ctx).
func Run(ctx context.Context, opts ...Option) (*Result, error) {
	return NewRunner(opts...).Run(ctx)
}

// Run executes one training run. It blocks until the configured rounds
// complete or ctx is canceled; on cancellation it returns the partial
// result accumulated so far together with an error wrapping ctx.Err().
func (r *Runner) Run(ctx context.Context, opts ...Option) (*Result, error) {
	cfg := defaultConfig()
	for _, o := range r.base {
		o(&cfg)
	}
	for _, o := range opts {
		o(&cfg)
	}

	var s exp.Scale
	switch cfg.scale {
	case "quick":
		s = exp.QuickScale()
	case "trimmed":
		s = exp.TrimmedScale()
	case "full":
		s = exp.FullScale()
	default:
		return nil, fmt.Errorf("fedprophet: unknown scale %q (have %v)", cfg.scale, Scales())
	}
	var w exp.Workload
	switch cfg.workload {
	case "cifar":
		w = exp.CIFAR10S()
	case "caltech":
		w = exp.Caltech256S(cfg.scale != "full")
	default:
		return nil, fmt.Errorf("fedprophet: unknown workload %q (have %v)", cfg.workload, Workloads())
	}
	var h device.Heterogeneity
	switch cfg.hetero {
	case "balanced":
		h = device.Balanced
	case "unbalanced":
		h = device.Unbalanced
	default:
		return nil, fmt.Errorf("fedprophet: unknown heterogeneity %q (balanced or unbalanced)", cfg.hetero)
	}

	// Scale overrides must land before the environment is assembled: the
	// client count shapes the data partition and the device fleet.
	if cfg.rounds > 0 {
		s.Rounds = cfg.rounds
	}
	if cfg.roundsPerModule > 0 {
		s.RoundsPerModule = cfg.roundsPerModule
	}
	if cfg.clients > 0 {
		s.NumClients = cfg.clients
	}
	if cfg.clientsPerRound > 0 {
		s.ClientsPerRound = cfg.clientsPerRound
	}
	if cfg.localIters > 0 {
		s.LocalIters = cfg.localIters
	}
	if cfg.trainPGD != nil {
		s.TrainPGD = *cfg.trainPGD
	}

	if err := cfg.validateWire(); err != nil {
		return nil, err
	}

	params := exp.ParamsFor(w, s)
	params.UseAPA = cfg.apa
	params.UseDMA = cfg.dma
	params.UploadBits = cfg.uploadBits
	params.UploadChunk = cfg.uploadChunk
	method, err := fl.NewMethod(cfg.method, params)
	if err != nil {
		return nil, err
	}

	env := exp.NewEnv(w, s, h, cfg.seed)
	if cfg.trainPGD != nil {
		env.Cfg.TrainPGD = *cfg.trainPGD
	}
	env.Parallelism = cfg.parallelism
	env.Sampler = cfg.sampler
	env.Aggregator = cfg.aggregator
	env.TrainAttack = cfg.attack
	env.Hook = cfg.hook
	if cfg.ch != nil {
		ch, hook := cfg.ch, cfg.hook
		env.Hook = func(m RoundMetrics) {
			if hook != nil {
				hook(m)
			}
			select {
			case ch <- m:
			case <-ctx.Done():
			}
		}
	}

	return method.Run(ctx, env)
}

// validateWire checks the upload/wire codec options as a group. Top-k and
// delta-pull are transport-facing (see WireCompression): they must ride a
// compressed codec, and in-process runs never apply them to module uploads.
func (cfg *runConfig) validateWire() error {
	if cfg.uploadBits != 0 && (cfg.uploadBits < 2 || cfg.uploadBits > 8) {
		return fmt.Errorf("fedprophet: upload/wire-compression bits %d outside [2,8] (0 disables)", cfg.uploadBits)
	}
	if cfg.uploadChunk < 0 {
		return fmt.Errorf("fedprophet: wire-compression chunk %d must be ≥ 0", cfg.uploadChunk)
	}
	if cfg.wireTopK < 0 {
		return fmt.Errorf("fedprophet: wire top-k %d must be ≥ 0 (0 = dense)", cfg.wireTopK)
	}
	if (cfg.wireTopK > 0 || cfg.wireDelta) && cfg.uploadBits == 0 {
		return fmt.Errorf("fedprophet: top-k/delta-pull ride the compressed codec — set WithWireCompression first")
	}
	return nil
}
