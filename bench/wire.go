package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fedprophet/bench/internal/stat"
	"fedprophet/internal/data"
	"fedprophet/internal/fl"
	"fedprophet/internal/fldist"
	"fedprophet/internal/nn"
)

// wireInst is fed.wire: a real federation. A synchronous server with quorum
// C and C production fldist.Clients on non-IID shards run pull → PGD-3
// adversarial TrainLocal → push at {4 bits, chunk 256, top-k, delta
// downlink}. The harness composes the three calls per client and holds a
// barrier between rounds, so no client polls /round and a round's time is
// the federation's, not the poll backoff's.
type wireInst struct {
	rig     *rig
	comp    fldist.Compression
	clients []*fldist.Client
	cur     []*atomic.Int64 // per client: the span its requests belong to
	build   func() *nn.Model
	round   int // rounds run so far, warm-up included
}

const (
	wirePGDSteps = 3
	wireLR       = 0.05
)

func setupWire(cfg *config) (instance, error) {
	build := func() *nn.Model { return cfg.size.wireModel(rand.New(rand.NewSource(cfg.seed))) }
	m := build()
	n := cfg.workers
	srv := fldist.NewServer(nn.ExportParams(m), nn.ExportBNStats(m), n)
	r, err := newRig(srv, cfg.tr)
	if err != nil {
		return nil, err
	}
	sc := cfg.size.scale
	train, _ := data.Generate(data.CIFAR10SConfig(sc.TrainPerClass, sc.TestPerClass, cfg.seed))
	subs := data.PartitionNonIID(train, data.DefaultPartition(n, cfg.seed+300))
	tcfg := fl.DefaultConfig()
	tcfg.LocalIters, tcfg.Batch = cfg.size.wireIters, 8
	w := &wireInst{
		rig: r, build: build,
		comp: fldist.Compression{Bits: 4, Chunk: serveChunk, TopK: max(nn.NumParams(m)/64, 1), Delta: true},
	}
	for id := 0; id < n; id++ {
		cur := new(atomic.Int64)
		c := newRealClient(r, build(), id, &w.comp, cur)
		c.Subset, c.Cfg, c.PGDSteps = subs[id], tcfg, wirePGDSteps
		c.Rng = rand.New(rand.NewSource(cfg.seed*31 + int64(id)))
		w.clients, w.cur = append(w.clients, c), append(w.cur, cur)
	}
	// Warm-up round: codec negotiation, the cold pull that puts every client
	// on the delta chain, first cache builds, arena and pool warm.
	if _, _, err := w.runRound(nil); err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	return w, nil
}

func (w *wireInst) close() { w.rig.close() }

// runRound runs one federated round across all clients and returns its wall
// time and mean training loss.
func (w *wireInst) runRound(tr *tracer) (time.Duration, float64, error) {
	ctx := context.Background()
	losses := make([]float64, len(w.clients))
	errs := make([]error, len(w.clients))
	trace := w.round
	t0 := time.Now()
	rs := tr.startAt("bench.round", noSpan, trace, 0, t0)
	var wg sync.WaitGroup
	for i, c := range w.clients {
		wg.Add(1)
		go func(i int, c *fldist.Client) {
			defer wg.Done()
			cs := tr.start("bench.client", rs, trace, c.ID)
			defer tr.end(cs)
			step := func(name string, f func() error) error {
				id := tr.start(name, cs, trace, c.ID)
				if tr != nil {
					w.cur[i].Store(packSpanRef(id, trace))
				}
				err := f()
				tr.end(id)
				return err
			}
			var round int
			if errs[i] = step("fldist.Client.Pull", func() (err error) { round, err = c.Pull(ctx); return }); errs[i] != nil {
				return
			}
			_ = step("fldist.Client.TrainLocal", func() error { losses[i] = c.TrainLocal(wireLR); return nil })
			errs[i] = step("fldist.Client.Push", func() error {
				counted, err := c.Push(ctx, round)
				if err == nil && !counted {
					err = fmt.Errorf("push for round %d was dropped as a duplicate", round)
				}
				return err
			})
		}(i, c)
	}
	wg.Wait()
	end := time.Now()
	tr.endAt(rs, end)
	w.round++
	mean := 0.0
	for i, err := range errs {
		if err != nil {
			return 0, 0, fmt.Errorf("client %d, round %d: %w", i, trace, err)
		}
		mean += losses[i] / float64(len(losses))
	}
	return end.Sub(t0), mean, nil
}

// wirePhase is one measured stretch of fed.wire.
type wirePhase struct {
	before  fldist.Stats // server counters when the phase began
	roundMS []float64
	losses  []float64
	elapsed time.Duration
	err     error // the round that failed, if one did
}

// phase runs rounds for the given time, and at least the fewest rounds.
func (w *wireInst) phase(cfg *config, tr *tracer, seconds float64) wirePhase {
	ph := wirePhase{before: w.rig.srv.Stats()}
	begin := time.Now()
	for r := 0; r < cfg.size.wireRounds || time.Since(begin).Seconds() < seconds; r++ {
		d, loss, err := w.runRound(tr)
		if err != nil {
			// A failed round leaves the quorum unfilled: nothing after it
			// can complete, so the phase ends here.
			ph.err = err
			break
		}
		ph.roundMS, ph.losses = append(ph.roundMS, float64(d)/1e6), append(ph.losses, loss)
	}
	ph.elapsed = time.Since(begin)
	return ph
}

func (w *wireInst) run(cfg *config) (*report, error) {
	rep := &report{layer: map[string]float64{}}
	srv := w.rig.srv
	var phases []wirePhase
	tracedSplit(cfg, func(tr *tracer, seconds float64) {
		phases = append(phases, w.phase(cfg, tr, seconds))
	})
	for _, ph := range phases {
		rep.attempted += len(ph.roundMS)
		if ph.err != nil {
			rep.attempted++
			rep.failed++
			rep.problems = append(rep.problems, ph.err.Error())
		}
	}
	main := phases[len(phases)-1]
	before, losses, elapsed := main.before, main.losses, main.elapsed
	rep.latMS = main.roundMS
	st := srv.Stats()
	rounds := len(losses)
	if rounds == 0 {
		return rep, nil
	}
	if len(phases) == 2 && len(phases[0].roundMS) > 0 {
		base := phases[0]
		rep.layer["trace_overhead_frac"] = 1 - (float64(rounds)/elapsed.Seconds())/(float64(len(base.roundMS))/base.elapsed.Seconds())
	}

	rep.check(st.RoundsCompleted-before.RoundsCompleted == rounds, "%d rounds run, server completed %d", rounds, st.RoundsCompleted-before.RoundsCompleted)
	rep.check(st.RoundsCompleted == w.round, "server at %d completed rounds, harness ran %d", st.RoundsCompleted, w.round)
	finite := true
	for _, l := range losses {
		finite = finite && !math.IsNaN(l) && !math.IsInf(l, 0)
	}
	rep.check(finite, "a round's training loss is not finite")
	// Convergence: the mean of the last rounds against the first. Single
	// rounds on 8-sample batches are noisy, so both ends average a few.
	k := max(rounds/10, 1)
	firstLoss, finalLoss := mean(losses[:k]), mean(losses[rounds-k:])
	rep.check(finalLoss < firstLoss, "final loss %.4f is not below first-round loss %.4f", finalLoss, firstLoss)

	// Every client's final pull must land on the same model, and on the one
	// a client that was never part of the federation pulls cold.
	ctx := context.Background()
	fresh := newRealClient(w.rig, w.build(), len(w.clients), &w.comp, nil)
	if _, err := fresh.Pull(ctx); err != nil {
		return nil, fmt.Errorf("final cold pull: %w", err)
	}
	want := nn.ExportParams(fresh.Model)
	for _, c := range w.clients {
		r, err := c.Pull(ctx)
		if err != nil {
			return nil, fmt.Errorf("final pull of client %d: %w", c.ID, err)
		}
		rep.check(r == srv.Round() && bitsEqual(nn.ExportParams(c.Model), want) && bitsEqual(nn.ExportBNStats(c.Model), nn.ExportBNStats(fresh.Model)),
			"client %d's final pulled model (round %d) differs from a cold pull of round %d", c.ID, r, srv.Round())
	}

	samplesPerRound := float64(len(w.clients) * cfg.size.wireIters * 8)
	rep.ops = samplesPerRound * float64(rounds)
	rep.throughput = rep.ops / elapsed.Seconds()
	wire := st.BytesInRaw + st.BytesInCompressed + st.BytesOutRaw + st.BytesOutCompressed -
		(before.BytesInRaw + before.BytesInCompressed + before.BytesOutRaw + before.BytesOutCompressed)
	rep.wireBytesPerOp = float64(wire) / float64(rounds)
	rep.layer["quality.final_loss"] = finalLoss
	statsLayer(rep.layer, before, st, 0)
	httpShare(rep.layer, cfg.tr)
	if cfg.tr != nil {
		spans := cfg.tr.finished()
		rep.layer["fldist.client_pull_ms"] = stat.Median(durationsMS(spans, "fldist.Client.Pull"))
		rep.layer["fldist.client_train_ms"] = stat.Median(durationsMS(spans, "fldist.Client.TrainLocal"))
		rep.layer["fldist.client_push_ms"] = stat.Median(durationsMS(spans, "fldist.Client.Push"))
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("%d clients x %d iters x batch 8, PGD-%d, %d rounds in %.2fs; loss %.4f -> %.4f; up %d B/round, down %d B/round",
			len(w.clients), cfg.size.wireIters, wirePGDSteps, rounds, elapsed.Seconds(), firstLoss, finalLoss,
			(st.BytesInCompressed+st.BytesInRaw-before.BytesInCompressed-before.BytesInRaw)/int64(rounds),
			(st.BytesOutCompressed+st.BytesOutRaw-before.BytesOutCompressed-before.BytesOutRaw)/int64(rounds)))
	return rep, nil
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
