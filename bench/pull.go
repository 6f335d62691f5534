package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"fedprophet/internal/fldist"
	"fedprophet/internal/nn"
	"fedprophet/internal/quant"
)

// pullKind is one request form of the serve.pull traffic mix.
type pullKind uint8

const (
	pullDelta  pullKind = iota // FPD1 catch-up from a base 0–3 rounds behind the head
	pullDense4                 // full 4-bit model
	pullDense8                 // full 8-bit model
	pullRaw                    // gob float64 model
	pullLagged                 // delta pull from a base evicted from the chain: served cold
	numPullKinds
)

var pullKindNames = [numPullKinds]string{"delta", "dense4", "dense8", "raw", "lagged"}

// pullMix is the traffic mix in parts per thousand: about 70 % delta
// catch-up, 20 % cold dense pulls, 10 % raw, and a lagging identity whose
// base has left the delta window about once in five hundred requests.
var pullMix = [numPullKinds]int{700, 100, 100, 98, 2}

// deltaWindow mirrors the server's synchronous-mode catch-up depth: a base
// more than this many rounds behind the chain head has been evicted.
const deltaWindow = 8

// pullRequest is one scheduled request: its form and, for delta forms, how
// many rounds behind the head the declared base is.
type pullRequest struct {
	kind pullKind
	lag  uint8
}

// pullSchedule draws worker w's request sequence from the seed. The schedule
// is a pure function of (seed, worker, length): two runs on one seed offer
// the server the same requests in the same per-worker order.
func pullSchedule(seed int64, worker, n int) []pullRequest {
	rng := rand.New(rand.NewSource(seed*7919 + int64(worker)))
	out := make([]pullRequest, n)
	for i := range out {
		x := rng.Intn(1000)
		k := pullKind(0)
		for x >= pullMix[k] {
			x -= pullMix[k]
			k++
		}
		out[i].kind = k
		switch k {
		case pullDelta:
			out[i].lag = uint8(rng.Intn(4))
		case pullLagged:
			out[i].lag = deltaWindow + 2
		}
	}
	return out
}

// scheduleBytes flattens a schedule for hashing and comparison.
func scheduleBytes(s []pullRequest) []byte {
	b := make([]byte, 0, 2*len(s))
	for _, r := range s {
		b = append(b, byte(r.kind), r.lag)
	}
	return b
}

// pullInst is serve.pull: C closed-loop pullers on the seeded mix while an
// in-memory pusher advances the round on a fixed schedule, so the served
// cache is invalidated and rebuilt, and the delta chain grows and evicts,
// throughout the run.
type pullInst struct {
	rig   *rig
	sm    *serveModel
	clock *pushBody
	comp  fldist.Compression // the delta variant
	// Real clients that check what the synthetic pullers only count.
	raw, d8, d4, chain *fldist.Client
	coldModel          *nn.Model // replica of the fresh client each check pulls cold with
	problems           []string
	checks             int
	clockOK            int64
}

func setupPull(cfg *config) (instance, error) {
	sm := newServeModel(cfg)
	srv := fldist.NewServer(sm.params, sm.bn, 1) // the clock pusher alone fills the quorum
	r, err := newRig(srv, cfg.tr)
	if err != nil {
		return nil, err
	}
	p := &pullInst{
		rig: r, sm: sm, clock: newPushBody(sm, 0, cfg.seed),
		comp: fldist.Compression{Bits: 4, Chunk: serveChunk, TopK: sm.topK, Delta: true},
	}
	p.raw = newRealClient(r, sm.build(), 1, nil, nil)
	p.d8 = newRealClient(r, sm.build(), 2, &fldist.Compression{Bits: 8, Chunk: serveChunk}, nil)
	p.d4 = newRealClient(r, sm.build(), 3, &fldist.Compression{Bits: 4, Chunk: serveChunk}, nil)
	p.chain = newRealClient(r, sm.build(), 4, &p.comp, nil)
	p.coldModel = sm.build()
	// Warm-up: fill the delta chain to its window, one round at a time, with
	// every variant pulled and checked in every round — the measured phase
	// starts with every cache built and every lag in the mix servable.
	for i := 0; i < deltaWindow+1; i++ {
		if err := p.tick(nil, noSpan); err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return p, nil
}

func (p *pullInst) close() { p.rig.close() }

func (p *pullInst) fail(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// tick is one beat of the round clock: push the clock body straight into the
// handler (no connection), which folds and advances the round, then pull one
// body per variant through real clients and hold each against the server.
func (p *pullInst) tick(tr *tracer, parent spanID) error {
	srv := p.rig.srv
	round := srv.Round()
	w := newSinkWriter()
	id := tr.start("fldist.Handler", parent, round, 0)
	srv.Handler().ServeHTTP(w, p.clock.request(directURL, round))
	tr.end(id)
	if w.status() != http.StatusOK {
		return fmt.Errorf("clock push for round %d: status %d", round, w.status())
	}
	p.clockOK++
	return p.checkVariants()
}

// checkVariants pulls the current model once per variant through real
// clients. The raw pull must equal Snapshot() exactly; the dense pulls must
// lie within the codec's error bound of it (twice the half-step: this
// round's rounding plus the downlink residual carried from the last); and a
// client that caught up over the delta chain must hold, bit for bit, what a
// fresh client pulling the chain head cold holds.
func (p *pullInst) checkVariants() error {
	ctx := context.Background()
	srv := p.rig.srv
	want := srv.Round()
	snapP, snapBN := srv.Snapshot()
	pull := func(c *fldist.Client, what string) (bool, error) {
		r, err := c.Pull(ctx)
		if err != nil {
			return false, fmt.Errorf("%s pull: %w", what, err)
		}
		// Only the clock advances the round and it is the caller, so the
		// round cannot move under a check; a mismatch is a finding.
		if r != want {
			p.fail("%s pull returned round %d, server is at %d", what, r, want)
			return false, nil
		}
		return true, nil
	}
	p.checks++
	if ok, err := pull(p.raw, "raw"); err != nil {
		return err
	} else if ok && !(bitsEqual(nn.ExportParams(p.raw.Model), snapP) && bitsEqual(nn.ExportBNStats(p.raw.Model), snapBN)) {
		p.fail("round %d: raw pull differs from Snapshot()", want)
	}
	for _, d := range []struct {
		c    *fldist.Client
		bits int
	}{{p.d8, 8}, {p.d4, 4}} {
		what := fmt.Sprintf("dense %d-bit", d.bits)
		ok, err := pull(d.c, what)
		if err != nil {
			return err
		}
		tol := 2.5 * quant.QuantizeChunks(snapP, d.bits, serveChunk).MaxError()
		if diff := maxAbsDiff(nn.ExportParams(d.c.Model), snapP); ok && diff > tol {
			p.fail("round %d: %s pull is %.3g from Snapshot(), codec bound %.3g", want, what, diff, tol)
		}
	}
	if ok, err := pull(p.chain, "delta catch-up"); err != nil {
		return err
	} else if ok {
		cold := newRealClient(p.rig, p.coldModel, 5, &p.comp, nil)
		if ok, err := pull(cold, "delta cold"); err != nil {
			return err
		} else if ok && !bitsEqual(nn.ExportParams(p.chain.Model), nn.ExportParams(cold.Model)) {
			p.fail("round %d: delta catch-up client and cold client hold different models", want)
		}
	}
	return nil
}

// pullSample is one measured pull.
type pullSample struct {
	sample
	kind  pullKind
	bytes int64
}

// pullPhase is one measured stretch of serve.pull.
type pullPhase struct {
	samples []pullSample
	elapsed time.Duration
}

// phase runs the pullers and the round clock for the given time.
func (p *pullInst) phase(cfg *config, tr *tracer, seconds float64) (pullPhase, error) {
	srv := p.rig.srv
	hc := &http.Client{Transport: p.rig.tp, Timeout: 30 * time.Second}
	codecs := [numPullKinds]string{
		pullDense4: "fpq1;bits=4;chunk=" + strconv.Itoa(serveChunk),
		pullDense8: "fpq1;bits=8;chunk=" + strconv.Itoa(serveChunk),
	}
	deltaCodec := fmt.Sprintf("fpq1;bits=4;chunk=%d;topk=%d;delta=1;base=", serveChunk, p.sm.topK)

	begin := time.Now()
	deadline := begin.Add(time.Duration(seconds * float64(time.Second)))
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	// The round clock: a fixed schedule, not a free-running pusher, so every
	// run sees the same number of invalidations however fast pulls are.
	var clockErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(cfg.size.pullEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				id := tr.start("bench.clock", noSpan, srv.Round(), 0)
				err := p.tick(tr, id)
				tr.end(id)
				if err != nil {
					clockErr = err
					cancel()
					return
				}
			}
		}
	}()

	perWorker := make([][]pullSample, cfg.workers)
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Longer than any run can consume; the schedule wraps if it must.
			sched := pullSchedule(cfg.seed, w, 1<<16)
			buf := make([]byte, 64<<10)
			var mine []pullSample
			for i := 0; ctx.Err() == nil; i++ {
				rq := sched[i%len(sched)]
				req, err := http.NewRequest(http.MethodGet, p.rig.url+"/model", nil)
				if err != nil {
					break
				}
				switch rq.kind {
				case pullDelta, pullLagged:
					req.Header.Set(codecHeader, deltaCodec+strconv.Itoa(max(srv.Round()-int(rq.lag), 0)))
				case pullDense4, pullDense8:
					req.Header.Set(codecHeader, codecs[rq.kind])
				}
				id := tr.start("http.pull", noSpan, i, int(rq.kind))
				if id != noSpan {
					req.Header.Set(spanHeader, spanHeaderValue(id, i))
				}
				t0 := time.Now()
				var n int64
				ok := false
				if resp, err := hc.Do(req); err == nil {
					n, err = io.CopyBuffer(io.Discard, resp.Body, buf)
					resp.Body.Close()
					ok = err == nil && resp.StatusCode == http.StatusOK && n == resp.ContentLength
				}
				d := time.Since(t0)
				tr.end(id)
				mine = append(mine, pullSample{sample{time.Since(begin), float64(d) / 1e6, ok}, rq.kind, n})
			}
			perWorker[w] = mine
		}(w)
	}
	wg.Wait()
	ph := pullPhase{elapsed: time.Since(begin)}
	for _, ws := range perWorker {
		ph.samples = append(ph.samples, ws...)
	}
	return ph, clockErr
}

func (p *pullInst) run(cfg *config) (*report, error) {
	rep := &report{layer: map[string]float64{}}
	srv := p.rig.srv
	start := srv.Stats()
	bytesStart := p.rig.bodyBytes.Load()
	var before fldist.Stats
	var phases []pullPhase
	var clockErr error
	tracedSplit(cfg, func(tr *tracer, seconds float64) {
		if clockErr != nil {
			return
		}
		before = srv.Stats()
		var ph pullPhase
		ph, clockErr = p.phase(cfg, tr, seconds)
		phases = append(phases, ph)
	})
	if clockErr != nil {
		return nil, clockErr
	}
	main := phases[len(phases)-1]
	plain := func(ph pullPhase) []sample {
		out := make([]sample, len(ph.samples))
		for i, s := range ph.samples {
			out[i] = s.sample
		}
		return out
	}
	rep.throughput, rep.tailMS, rep.tailNote = windowed(plain(main), main.elapsed, time.Second)
	if len(phases) == 2 {
		base, _, _ := windowed(plain(phases[0]), phases[0].elapsed, time.Second)
		rep.layer["trace_overhead_frac"] = 1 - rep.throughput/base
	}

	var bytesSeen int64
	for _, ph := range phases {
		for _, s := range ph.samples {
			rep.attempted++
			bytesSeen += s.bytes
			if !s.ok {
				rep.failed++
			}
		}
	}
	var good, mainBytes int64
	var pulled [numPullKinds]int64
	for _, s := range main.samples {
		pulled[s.kind]++
		if s.ok {
			good++
			mainBytes += s.bytes
			rep.latMS = append(rep.latMS, s.ms)
		}
	}
	st := srv.Stats()
	rep.attempted += p.checks
	rep.failed += len(p.problems)
	rep.problems = append(rep.problems, p.problems...)
	// The synthetic pullers read bodies off the pooled transport directly;
	// the real checking clients are counted by the rig. Together they are
	// everything the server wrote.
	clientBytes := bytesSeen + p.rig.bodyBytes.Load() - bytesStart
	serverBytes := st.BytesOutRaw + st.BytesOutCompressed - start.BytesOutRaw - start.BytesOutCompressed
	rep.check(clientBytes == serverBytes, "clients read %d body bytes, server counted %d written", clientBytes, serverBytes)
	rep.check(st.BytesOutDelta+st.BytesOutCold <= st.BytesOutCompressed, "delta+cold bytes %d exceed compressed bytes %d",
		st.BytesOutDelta+st.BytesOutCold, st.BytesOutCompressed)
	rep.check(int64(st.RoundsCompleted) == p.clockOK, "%d rounds completed, clock pushed %d", st.RoundsCompleted, p.clockOK)
	rep.check(st.ColdPulls-before.ColdPulls >= pulled[pullLagged], "%d cold pulls served, %d lagged pulls sent",
		st.ColdPulls-before.ColdPulls, pulled[pullLagged])

	rep.ops = float64(good)
	if good > 0 {
		rep.wireBytesPerOp = float64(mainBytes) / float64(good)
	}
	statsLayer(rep.layer, before, st, 0)
	httpShare(rep.layer, cfg.tr)
	mix := ""
	for k, c := range pulled {
		mix += fmt.Sprintf(" %s=%d", pullKindNames[k], c)
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("%d params + %d bn, %d pullers, round every %v (%d rounds measured), %d checks of 5 variants; mix:%s",
			len(p.sm.params), len(p.sm.bn), cfg.workers, cfg.size.pullEvery, st.RoundsCompleted-before.RoundsCompleted, p.checks, mix),
		fmt.Sprintf("delta pulls %d, cold pulls %d, served builds %d; server-side pull p50 %.0f us p99 %.0f us",
			st.DeltaPulls-before.DeltaPulls, st.ColdPulls-before.ColdPulls, st.ServedBuilds-before.ServedBuilds, st.PullP50Micros, st.PullP99Micros))
	return rep, nil
}
