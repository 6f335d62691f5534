package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	// The training packages register their methods with fl on import.
	_ "fedprophet/internal/baselines"
	_ "fedprophet/internal/core"

	"fedprophet/bench/internal/stat"
	"fedprophet/internal/device"
	"fedprophet/internal/exp"
	"fedprophet/internal/fl"
	"fedprophet/internal/nn"
)

// sizes is everything that differs between the measured benchmark and the
// -smoke pass over the same code.
type sizes struct {
	scale      exp.Scale // train.* hyperparameters and data volume
	trainReps  int       // seeded repetitions of one training run
	serveModel func(*rand.Rand) *nn.Model
	wireModel  func(*rand.Rand) *nn.Model
	wireIters  int           // local iterations per fed.wire round
	wireRounds int           // fewest measured fed.wire rounds
	pullEvery  time.Duration // serve.pull round schedule
	warm       time.Duration // serve.push rounds run before measuring
	probe      time.Duration // time one layer probe measures for
}

var cifarShape = []int{3, 16, 16}

func fullSizes() sizes {
	s := exp.TrimmedScale()
	s.Rounds = 16 // jFAT rounds; sized so a train.e2e rep lasts about as long as a train.cascade one
	return sizes{
		scale:      s,
		trainReps:  3,
		serveModel: func(r *rand.Rand) *nn.Model { return nn.VGG16S(cifarShape, 10, 8, r) },
		wireModel:  func(r *rand.Rand) *nn.Model { return nn.VGG16S(cifarShape, 10, 4, r) },
		wireIters:  4,
		wireRounds: 20,
		pullEvery:  250 * time.Millisecond,
		warm:       300 * time.Millisecond,
		probe:      60 * time.Millisecond,
	}
}

func smokeSizes() sizes {
	s := exp.TrimmedScale()
	s.TrainPerClass, s.TestPerClass = 8, 2
	s.Rounds, s.RoundsPerModule, s.LocalIters = 1, 1, 1
	s.NumClients, s.ClientsPerRound = 4, 2
	s.TrainPGD, s.EvalPGD, s.EvalAASteps, s.ValSize = 1, 1, 1, 4
	return sizes{
		scale:      s,
		trainReps:  2,
		serveModel: func(r *rand.Rand) *nn.Model { return nn.CNN3(cifarShape, 10, 4, r) },
		wireModel:  func(r *rand.Rand) *nn.Model { return nn.CNN3(cifarShape, 10, 4, r) },
		wireIters:  1,
		wireRounds: 12,
		pullEvery:  40 * time.Millisecond,
		warm:       5 * time.Millisecond,
		probe:      time.Millisecond,
	}
}

// trainInst is train.cascade (FedProphet) or train.e2e (jFAT): the same
// data, seed and client parallelism, one method.
type trainInst struct {
	method string
	params fl.MethodParams
}

// trainParams are the paper-default method parameters with early stopping
// disabled: it would make the number of rounds — and with it which module
// stages dominate a run — depend on the seed, and the benchmark wants the
// same work on every seed.
func trainParams(s exp.Scale) fl.MethodParams {
	p := exp.ParamsFor(exp.CIFAR10S(), s)
	p.Patience = s.RoundsPerModule + 1
	return p
}

// scheduleSeed draws everything about a training run that decides how much
// work it is: the device fleet, which clients each round samples, and the
// memory each has free that round — and so, under DMA, how many modules it
// trains. The workload seed draws the data and its non-IID partition. Were
// the schedule drawn from the workload seed too, train.cascade would differ
// by ±6 % in work from seed to seed, which reads as noise on every metric.
const scheduleSeed = 20250925

func newTrainEnv(cfg *config, s exp.Scale, parallelism int) *fl.Env {
	w := exp.CIFAR10S()
	env := exp.NewEnv(w, s, device.Balanced, cfg.seed)
	env.Rng = rand.New(rand.NewSource(scheduleSeed))
	env.Fleet = device.NewFleet(w.Pool, s.NumClients, device.Balanced, env.Rng)
	env.Parallelism = parallelism
	return env
}

// setupTrain is what a user pays before the first measured round: generate
// and partition the data, build the fleet and the method, and warm the
// tensor worker pool and scratch arena with one short run of the method.
func setupTrain(cfg *config, method string) (instance, error) {
	t := &trainInst{method: method, params: trainParams(cfg.size.scale)}
	warm := cfg.size.scale
	warm.Rounds, warm.RoundsPerModule = 1, 1
	m, err := fl.NewMethod(method, trainParams(warm))
	if err != nil {
		return nil, err
	}
	if _, err := m.Run(context.Background(), newTrainEnv(cfg, warm, cfg.workers)); err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	return t, nil
}

func (t *trainInst) close() {}

// trainRep is one seeded training run.
type trainRep struct {
	res       *fl.Result
	wall      time.Duration // the whole of Method.Run
	training  time.Duration // up to the last round hook: Run without the final evaluation
	roundMS   []float64
	roundMods []int // module index trained in each round (FedProphet)
	digest    uint64
}

// rep runs the method once from the seed. A round's latency is the time
// between consecutive round hooks (the first from the start of Run); the
// spans mirror those intervals, so a traced rep costs what an untraced one
// does plus the span appends.
func (t *trainInst) rep(cfg *config, tr *tracer, parallelism, repIdx int) (*trainRep, error) {
	m, err := fl.NewMethod(t.method, t.params)
	if err != nil {
		return nil, err
	}
	env := newTrainEnv(cfg, cfg.size.scale, parallelism)
	out := &trainRep{}
	roundName := "core.round"
	if t.method != "FedProphet" {
		roundName = "baselines.round"
	}
	start := time.Now()
	runSpan := tr.startAt("fl.Method.Run", noSpan, repIdx, parallelism, start)
	last := start
	env.Hook = func(rm fl.RoundMetrics) {
		now := time.Now()
		out.roundMS = append(out.roundMS, float64(now.Sub(last))/1e6)
		out.roundMods = append(out.roundMods, rm.Module)
		tr.endAt(tr.startAt(roundName, runSpan, repIdx, rm.Module, last), now)
		last = now
	}
	res, err := m.Run(context.Background(), env)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	// What follows the last round is the final evaluation.
	tr.endAt(tr.startAt("fl.Evaluate", runSpan, repIdx, 0, last), end)
	tr.endAt(runSpan, end)
	out.res, out.wall, out.training = res, end.Sub(start), last.Sub(start)
	out.digest = paramDigest(res.Model)
	return out, nil
}

// paramDigest hashes every parameter and BatchNorm statistic bit for bit.
func paramDigest(l nn.Layer) uint64 {
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

func (t *trainInst) run(cfg *config) (*report, error) {
	rep := &report{layer: map[string]float64{}}
	sc := cfg.size.scale
	samplesPerRound := float64(sc.ClientsPerRound * sc.LocalIters * 8) // exp.NewEnv fixes batch 8
	var reps []*trainRep
	var rates []float64
	add := func(r *trainRep, measured bool) {
		reps = append(reps, r)
		if measured {
			rates = append(rates, samplesPerRound*float64(len(r.res.History))/r.training.Seconds())
			rep.latMS = append(rep.latMS, r.roundMS...)
		}
	}

	// A traced run spends its first two reps untraced: one with a single
	// client worker, for fl.parallel_speedup, and one at full parallelism as
	// the base of trace_overhead_frac. Both must reproduce the traced reps'
	// model exactly, like any other rep.
	measuredFrom, minReps := 0, cfg.size.trainReps
	begin := time.Now()
	if cfg.tr != nil {
		for _, par := range []int{1, cfg.workers} {
			r, err := t.rep(cfg, nil, par, len(reps))
			if err != nil {
				return nil, err
			}
			add(r, false)
		}
		measuredFrom, minReps = 2, 1
		rep.layer["fl.parallel_speedup"] = reps[0].wall.Seconds() / reps[1].wall.Seconds()
	}
	for n := 0; ; n++ {
		// Past the fewest reps, another one only if it would end within a
		// tenth of the asked run length: the count of reps, and so of
		// latency samples, should not flip on a few milliseconds.
		if n >= minReps && (time.Since(begin)+reps[len(reps)-1].wall).Seconds() > 1.1*cfg.seconds {
			break
		}
		r, err := t.rep(cfg, cfg.tr, cfg.workers, len(reps))
		if err != nil {
			return nil, err
		}
		add(r, true)
	}

	first := reps[0]
	for i, r := range reps {
		rs := r.res
		for name, v := range map[string]float64{"clean": rs.CleanAcc, "pgd": rs.PGDAcc, "aa": rs.AAAcc} {
			rep.check(!math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 && v <= 1, "rep %d: %s accuracy %v is not a finite share", i, name, v)
		}
		for _, h := range rs.History {
			rep.check(!math.IsNaN(h.Loss) && !math.IsInf(h.Loss, 0), "rep %d round %d: loss %v not finite", i, h.Round, h.Loss)
		}
		rep.check(rs.CleanAcc == first.res.CleanAcc && rs.PGDAcc == first.res.PGDAcc && rs.AAAcc == first.res.AAAcc,
			"rep %d: accuracies (%v %v %v) differ from rep 0 (%v %v %v) on the same seed",
			i, rs.CleanAcc, rs.PGDAcc, rs.AAAcc, first.res.CleanAcc, first.res.PGDAcc, first.res.AAAcc)
		rep.check(r.digest == first.digest, "rep %d: parameter digest %016x differs from rep 0 %016x on the same seed", i, r.digest, first.digest)
		rep.check(len(rs.History) == len(first.res.History), "rep %d: %d rounds, rep 0 ran %d", i, len(rs.History), len(first.res.History))
	}

	rounds := float64(len(first.res.History))
	rep.throughput = stat.Median(rates)
	for _, r := range reps[measuredFrom:] {
		rep.ops += samplesPerRound * float64(len(r.res.History))
	}
	rep.wireBytesPerOp = first.res.Extra["comm_up_bytes"] / rounds
	rep.layer["quality.clean_acc"] = first.res.CleanAcc
	rep.layer["quality.pgd_acc"] = first.res.PGDAcc
	rep.layer["quality.final_loss"] = first.res.History[len(first.res.History)-1].Loss
	rep.layer["memmodel.mem_reduction"] = first.res.Extra["mem_reduction"]
	rep.layer["simlat.round_latency_s"] = first.res.Latency.Total() / rounds
	if cfg.tr != nil {
		rep.layer["trace_overhead_frac"] = 1 - stat.Median(rates)/(samplesPerRound*rounds/reps[1].training.Seconds())
	}
	// Rounds of different module stages are different populations — a
	// cascade's stages differ several-fold in cost — so the percentile rule
	// is applied per stage: each stage's rounds are read at their median and
	// at the highest percentile their count supports; the median stage gives
	// latency_p50_ms and the slowest stage the tail. (Pooled, every octile of
	// 8 stages × 9 rounds falls on a boundary between two stages and flips
	// from run to run.) jFAT has one stage, so its numbers are the plain
	// median and p75 of its rounds.
	stage := map[int][]float64{}
	for _, r := range reps[measuredFrom:] {
		for i, ms := range r.roundMS {
			stage[r.roundMods[i]] = append(stage[r.roundMods[i]], ms)
		}
	}
	var medians []float64
	tailQ := 0.0
	for _, v := range stage {
		sorted := stat.Sorted(v)
		tailQ = stat.TailQ(len(sorted))
		medians = append(medians, stat.Median(sorted))
		rep.tailMS = max(rep.tailMS, stat.Percentile(sorted, tailQ))
	}
	rep.p50MS = stat.Median(medians)
	rep.tailNote = fmt.Sprintf("slowest of %d module stages at p%g", len(stage), 100*tailQ)
	rep.layer["core.round_ms"] = rep.p50MS
	rep.layer["core.stage_ms_max"] = rep.tailMS
	rep.notes = append(rep.notes,
		fmt.Sprintf("%s: %d reps x %d rounds, %g samples/round; clean %.4f pgd %.4f aa %.4f; digest %016x",
			t.method, len(reps), len(first.res.History), samplesPerRound,
			first.res.CleanAcc, first.res.PGDAcc, first.res.AAAcc, first.digest))
	return rep, nil
}
