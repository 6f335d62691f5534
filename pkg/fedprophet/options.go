package fedprophet

// Option configures a Run call. Options compose left to right; later options
// win.
type Option func(*runConfig)

// runConfig is the resolved option set of one Run call.
type runConfig struct {
	method   string
	workload string
	scale    string
	hetero   string
	seed     int64

	rounds          int
	roundsPerModule int
	clients         int
	clientsPerRound int
	localIters      int
	trainPGD        *int

	apa bool
	dma bool

	parallelism int
	hook        func(RoundMetrics)

	aggregator Aggregator
}

func defaultConfig() runConfig {
	return runConfig{
		method:   "FedProphet",
		workload: "cifar",
		scale:    "quick",
		hetero:   "balanced",
		seed:     1,
		apa:      true,
		dma:      true,
	}
}

// WithMethod selects the training method by registry name (see Methods).
// Default "FedProphet".
func WithMethod(name string) Option { return func(c *runConfig) { c.method = name } }

// WithWorkload selects the workload: "cifar" or "caltech". Default "cifar".
func WithWorkload(name string) Option { return func(c *runConfig) { c.workload = name } }

// WithScale selects the run scale: "quick", "trimmed" or "full". Default
// "quick".
func WithScale(name string) Option { return func(c *runConfig) { c.scale = name } }

// WithHeterogeneity selects the device fleet's systematic heterogeneity:
// "balanced" or "unbalanced". Default "balanced".
func WithHeterogeneity(name string) Option { return func(c *runConfig) { c.hetero = name } }

// WithSeed fixes the random seed. Runs with the same seed and options are
// bit-identical, at any client parallelism. Default 1.
func WithSeed(seed int64) Option { return func(c *runConfig) { c.seed = seed } }

// WithRounds overrides the baselines' communication-round budget.
// FedProphet paces itself per module instead — use WithRoundsPerModule.
func WithRounds(n int) Option { return func(c *runConfig) { c.rounds = n } }

// WithRoundsPerModule overrides FedProphet's per-module round cap.
func WithRoundsPerModule(n int) Option { return func(c *runConfig) { c.roundsPerModule = n } }

// WithClients overrides the fleet size N (the data partition follows).
func WithClients(n int) Option { return func(c *runConfig) { c.clients = n } }

// WithClientsPerRound overrides the per-round cohort size C.
func WithClientsPerRound(n int) Option { return func(c *runConfig) { c.clientsPerRound = n } }

// WithLocalIters overrides the local SGD iteration count E.
func WithLocalIters(n int) Option { return func(c *runConfig) { c.localIters = n } }

// WithTrainPGD overrides the adversarial-training PGD step count; 0 trains
// without perturbation (standard federated SGD — for FedProphet this also
// disables the feature-space PGD of the later cascade modules).
func WithTrainPGD(steps int) Option {
	return func(c *runConfig) { c.trainPGD = &steps }
}

// WithAPA toggles Adaptive Perturbation Adjustment (FedProphet, §6.2).
// Default on.
func WithAPA(on bool) Option { return func(c *runConfig) { c.apa = on } }

// WithDMA toggles Differentiated Module Assignment (FedProphet, §6.3).
// Default on.
func WithDMA(on bool) Option { return func(c *runConfig) { c.dma = on } }

// WithClientParallelism trains each round's sampled clients on up to n
// concurrent workers. The result is bit-identical to sequential execution
// for a fixed seed; only the wall clock changes. 1 runs sequentially; the
// default, and any n ≤ 0, is one worker per core (GOMAXPROCS).
func WithClientParallelism(n int) Option { return func(c *runConfig) { c.parallelism = n } }

// WithRoundHook streams every completed round's telemetry to fn,
// synchronously from the training loop, before the next round starts.
func WithRoundHook(fn func(RoundMetrics)) Option { return func(c *runConfig) { c.hook = fn } }

// WithAggregator replaces FedAvg weighted averaging.
func WithAggregator(a Aggregator) Option { return func(c *runConfig) { c.aggregator = a } }
