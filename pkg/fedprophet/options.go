package fedprophet

import (
	"fedprophet/internal/quant"
)

// Option configures a Runner or a single Run call. Options compose left to
// right; later options win.
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

	apa         bool
	dma         bool
	uploadBits  int
	uploadChunk int

	parallelism int
	hook        func(RoundMetrics)
	ch          chan<- RoundMetrics

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

// WithWireCompression configures the compressed wire protocol parameters:
// client uploads are quantized at `bits` (2–8) with one scale per `chunk`
// values (0 selects the transport default of 256), exactly as
// internal/fldist frames deltas on the wire, and communication-byte
// accounting charges the codec's true frame size. In-process runs apply it
// to FedProphet's module uploads; for a real fleet, pass the same numbers
// to fldist.Client.Compression (cmd/fldist -bits/-chunk). Bits 0 disables
// compression.
func WithWireCompression(bits, chunk int) Option {
	return func(c *runConfig) {
		c.uploadBits = bits
		if bits != 0 && chunk == 0 {
			chunk = quant.DefaultChunk
		}
		c.uploadChunk = chunk
	}
}

// WithClientParallelism trains each round's sampled clients on up to n
// concurrent workers. The result is bit-identical to sequential execution
// for a fixed seed; only the wall clock changes. Values ≤ 1 run
// sequentially (the default).
func WithClientParallelism(n int) Option { return func(c *runConfig) { c.parallelism = n } }

// WithRoundHook streams every completed round's telemetry to fn,
// synchronously from the training loop, before the next round starts.
func WithRoundHook(fn func(RoundMetrics)) Option { return func(c *runConfig) { c.hook = fn } }

// WithRoundChannel streams every completed round's telemetry into ch. The
// send blocks until the consumer receives or the run's context is
// canceled, so a slow consumer backpressures training rather than losing
// events. The channel is not closed when the run ends.
func WithRoundChannel(ch chan<- RoundMetrics) Option { return func(c *runConfig) { c.ch = ch } }

// WithAggregator replaces FedAvg weighted averaging.
func WithAggregator(a Aggregator) Option { return func(c *runConfig) { c.aggregator = a } }
