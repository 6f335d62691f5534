// Package fedprophet is the public API of the FedProphet reproduction: one
// context-aware entry point, Run, for memory-heterogeneous federated
// adversarial training, a registry of training methods, pluggable
// aggregation, per-round telemetry through a hook, and parallel client
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
)

// Built-in aggregators, ready to pass to WithAggregator.
type (
	// FedAvg is data-size weighted averaging (the paper default).
	FedAvg = fl.FedAvg
	// TrimmedMean is a Byzantine-robust coordinate-wise trimmed mean.
	TrimmedMean = fl.TrimmedMean
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
func Workloads() []string { return exp.WorkloadNames() }

// Scales lists the accepted WithScale names.
func Scales() []string { return exp.ScaleNames() }

// Run executes one training run configured by opts, on top of the
// paper-default FedProphet configuration. It blocks until the configured
// rounds complete or ctx is canceled; on cancellation it returns the partial
// result accumulated so far together with an error wrapping ctx.Err().
func Run(ctx context.Context, opts ...Option) (*Result, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}

	s, w, h, err := exp.Lookup(cfg.scale, cfg.workload, cfg.hetero)
	if err != nil {
		return nil, fmt.Errorf("fedprophet: %w", err)
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

	params := exp.ParamsFor(w, s)
	params.UseAPA = cfg.apa
	params.UseDMA = cfg.dma
	method, err := fl.NewMethod(cfg.method, params)
	if err != nil {
		return nil, err
	}

	env := exp.NewEnv(w, s, h, cfg.seed)
	if cfg.parallelism >= 1 {
		env.Parallelism = cfg.parallelism
	}
	env.Aggregator = cfg.aggregator
	env.Hook = cfg.hook
	return method.Run(ctx, env)
}
