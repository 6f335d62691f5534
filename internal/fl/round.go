package fl

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"fedprophet/internal/attack"
	"fedprophet/internal/data"
	"fedprophet/internal/device"
	"fedprophet/internal/nn"
	"fedprophet/internal/simlat"
)

// Round is one round's schedule: the sampled cohort in sampling order, one
// training seed and one device snapshot per sampled client, and the round's
// learning rate.
type Round struct {
	Clients []int
	Seeds   []int64
	Devices []device.Snapshot
	LR      float64 // ηt = γ^t·η0
}

// DrawRound draws round t's schedule from e.Rng in the one fixed order every
// method uses — cohort (sampleClients), then the per-client seeds (roundSeeds), then
// each client's device snapshot in sampling order — so a seeded run, in
// process or replayed over the wire, sees the same schedule.
func (e *Env) DrawRound(t int) Round {
	clients := sampleClients(e.Cfg.NumClients, e.Cfg.ClientsPerRound, e.Rng)
	r := Round{
		Clients: clients,
		Seeds:   roundSeeds(e.Rng, len(clients)),
		Devices: make([]device.Snapshot, len(clients)),
		LR:      e.Cfg.LR * math.Pow(e.Cfg.LRDecay, float64(t)),
	}
	for i, k := range clients {
		r.Devices[i] = e.Fleet.Snapshot(k, e.Rng)
	}
	return r
}

// Run is one method's training run in progress: the Result it accumulates
// round by round, the memory calibration every client budget comes from, and
// the upload bytes charged so far. Env.Start opens it, TrainRound adds its
// rounds, and Finish closes it.
type Run struct {
	*Result
	env       *Env
	cal       simlat.MemCalibration
	fullBytes int64
	upBytes   int64
}

// Start opens a run of the named method whose full model needs fullBytes of
// training memory (memmodel's requirement): every client's budget is
// calibrated against it, and the Result reports it as mem_full_bytes.
func (e *Env) Start(method string, fullBytes int64) *Run {
	return &Run{
		Result:    &Result{Method: method, Extra: map[string]float64{}},
		env:       e,
		cal:       simlat.NewMemCalibration(e.Fleet.PoolMaxMemGB(), fullBytes),
		fullBytes: fullBytes,
	}
}

// Finish closes the run with model as its trained global model. err is what
// TrainRound returned: nil evaluates model (Evaluate, drawing from Env.Rng);
// a cancellation error leaves model unevaluated and returns the completed
// rounds with err wrapped in how many there were.
func (r *Run) Finish(model nn.Layer, err error) (*Result, error) {
	r.Model = model
	r.Extra["mem_full_bytes"] = float64(r.fullBytes)
	r.Extra["comm_up_bytes"] = float64(r.upBytes)
	if err != nil {
		return r.Result, fmt.Errorf("fl: run canceled after %d completed rounds: %w", len(r.History), err)
	}
	r.CleanAcc, r.PGDAcc, r.AAAcc = Evaluate(model, r.env.Test, r.env.Cfg, r.env.Rng)
	return r.Result, nil
}

// Seat is one sampled client's place in a round: everything its local step
// may read.
type Seat struct {
	Round  *Round
	Index  int        // position in sampling order
	Slot   int        // worker slot, in [0, Env.ClientWorkers())
	Rng    *rand.Rand // the client's own generator, seeded from Round.Seeds[Index]
	Data   *data.Subset
	Device device.Snapshot
	Budget int64 // calibrated memory budget in cost-model bytes
}

// Client is what one client's local step reports to the driver.
type Client struct {
	Loss    float64     // mean training loss over its iterations
	Iters   int         // local iterations run; a client that ran none uploads nothing
	Work    simlat.Work // charged on the client's device snapshot
	UpBytes int64       // size of its upload
}

// TrainRound is the one round driver every method runs: it draws round t,
// trains the cohort on the worker slots (train runs once per sampled client,
// concurrently, and must touch only its slot's replica and its own output),
// hands fold the outputs of the clients that trained in sampling order, and
// records the round — m with its Round, Loss (the mean over those clients of
// each one's mean loss) and Latency (the slowest client's) set — before the
// Hook sees it. A round in which no client trained skips fold, keeping the
// global model, and records loss 0. On cancellation the round is discarded
// and ctx's error returned for the caller to close the run with (Finish).
func TrainRound[T any](ctx context.Context, run *Run, t int, m RoundMetrics, train func(Seat) (T, Client), fold func(Round, []T)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e := run.env
	r := e.DrawRound(t)
	outs := make([]T, len(r.Clients))
	reps := make([]Client, len(r.Clients))
	err := forEachClient(ctx, e.ClientWorkers(), len(r.Clients), r.Seeds, func(slot, i int, rng *rand.Rand) {
		dev := r.Devices[i]
		outs[i], reps[i] = train(Seat{
			Round: &r, Index: i, Slot: slot, Rng: rng,
			Data: e.Subsets[r.Clients[i]], Device: dev, Budget: run.cal.Budget(dev.AvailMemGB),
		})
	})
	if err != nil {
		return err
	}

	trained := outs[:0]
	lats := make([]simlat.Latency, len(reps))
	loss := 0.0
	for i, c := range reps {
		lats[i] = simlat.ClientLatency(c.Work, r.Devices[i])
		if c.Iters == 0 {
			continue
		}
		trained = append(trained, outs[i])
		loss += c.Loss
		run.upBytes += c.UpBytes
	}
	if len(trained) > 0 {
		fold(r, trained)
		m.Loss = loss / float64(len(trained))
	}

	m.Round = t
	m.Latency = simlat.RoundLatency(lats)
	run.Latency.Add(m.Latency)
	run.History = append(run.History, m)
	if e.Hook != nil {
		e.Hook(m)
	}
	return nil
}

// CycleBatches is the one batch loop: it runs step on iters batches of
// indices, cycling through one shuffled pass of batches (data.Batches), and
// reports the mean of the losses step returns (0 when no step ran) and the
// number of steps run — 0 when indices hold no batch. step receives the
// step's index and the batch's indices.
func CycleBatches(indices []int, batch, iters int, rng *rand.Rand, step func(it int, b []int) float64) (float64, int) {
	batches := data.Batches(indices, batch, rng)
	total, n := 0.0, 0
	for ; n < iters && len(batches) > 0; n++ {
		total += step(n, batches[n%len(batches)])
	}
	if n == 0 {
		return 0, 0
	}
	return total / float64(n), n
}

// LocalTrain is a client's local step: cfg.LocalIters iterations of
// (adversarially) perturbed SGD on model over the client subset
// (CycleBatches). It reports the mean training loss (0 when no iteration
// ran) and the number of iterations executed. A zero-step attack config
// selects standard training.
func LocalTrain(model nn.Layer, sub *data.Subset, cfg Config, lr float64, atk attack.Config, rng *rand.Rand) (float64, int) {
	opt := nn.NewSGD(lr, cfg.Momentum, cfg.WeightDecay)
	nn.ResetMomentum(model.Params())
	return CycleBatches(sub.Indices, cfg.Batch, cfg.LocalIters, rng, func(_ int, b []int) float64 {
		x, y := data.Batch(sub.Parent, b)
		if atk.Steps > 0 {
			x = attack.Perturb(atk, x, attack.CEGradFn(model, y), rng)
		}
		out := model.Forward(x, true)
		loss, g := nn.SoftmaxCrossEntropy(out, y)
		nn.ZeroGrads(model)
		model.Backward(g)
		opt.Step(model.Params())
		return loss
	})
}
