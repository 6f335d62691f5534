package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"fedprophet/bench/internal/stat"
	"fedprophet/internal/fl"
	"fedprophet/internal/fldist"
	"fedprophet/internal/nn"
	"fedprophet/internal/quant"
)

// Wire constants of the fldist protocol (docs/WIRE.md). The benchmark builds
// push bodies itself so a synthetic pusher costs O(1) per push; the server
// rejects a wrong byte here with a 400, which the run counts as a failure.
const (
	codecHeader      = "X-Fldist-Codec"
	contentTypeDelta = "application/x-fldist-delta"
	updateMagic      = "FPU1"
	envelopeVersion  = 1
	updateRoundOff   = 9 // offset of the uint32 round in an update envelope

	// spanHeader carries "<span id>,<trace id>" of the client-side span that
	// caused a request, so the handler span can name its parent.
	spanHeader = "X-Bench-Span"

	serveChunk = 256
)

// rig is one fldist server behind a loopback HTTP listener, plus the client
// plumbing every serve workload shares.
type rig struct {
	srv    *fldist.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve has returned
	url    string
	tp     *http.Transport
	// bodyBytes counts every response-body byte a client of this rig read:
	// the client-side total the server's bytes-out counters must equal.
	bodyBytes atomic.Int64
}

// newRig starts srv on 127.0.0.1 at a free port. With a tracer, every
// request is bracketed by an "fldist.Handler" span parented to the client
// span named in its header.
func newRig(srv *fldist.Server, tr *tracer) (*rig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &rig{
		srv:    srv,
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		tp:     &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64},
	}
	r.hs = &http.Server{Handler: tracedHandler(srv.Handler(), tr)}
	go func() {
		defer close(r.served)
		_ = r.hs.Serve(ln) // returns ErrServerClosed from close()
	}()
	return r, nil
}

// close stops the listener and every connection and waits for the serving
// goroutine to end.
func (r *rig) close() {
	_ = r.hs.Close()
	<-r.served
	r.tp.CloseIdleConnections()
	_ = r.srv.Close()
}

// client returns an http.Client on the rig's connection pool whose response
// bodies are counted. cur, when non-nil, names the span to attribute the
// client's requests to (set by the harness before each call into a real
// fldist.Client, which builds its own requests).
func (r *rig) client(cur *atomic.Int64) *http.Client {
	return &http.Client{Transport: &countingTransport{base: r.tp, n: &r.bodyBytes, cur: cur}, Timeout: 30 * time.Second}
}

type countingTransport struct {
	base http.RoundTripper
	n    *atomic.Int64
	cur  *atomic.Int64 // packed span reference, 0 = none
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.cur != nil {
		if ref := t.cur.Load(); ref != 0 {
			req.Header.Set(spanHeader, unpackSpanRef(ref))
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: t.n}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// A span reference travels as one int64 (span id + 1 in the high half, trace
// id in the low) so a client's "current span" is a single atomic.
func packSpanRef(id spanID, trace int) int64 { return int64(id+1)<<32 | int64(uint32(trace)) }

func unpackSpanRef(ref int64) string {
	return strconv.FormatInt(ref>>32-1, 10) + "," + strconv.FormatInt(int64(uint32(ref)), 10)
}

func spanHeaderValue(id spanID, trace int) string { return unpackSpanRef(packSpanRef(id, trace)) }

// tracedHandler brackets every request with a span. Untraced, the handler is
// returned as it is: the end-to-end run has no wrapper in its path.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, trace := noSpan, 0
		if v := req.Header.Get(spanHeader); v != "" {
			var p, t int
			if _, err := fmt.Sscanf(v, "%d,%d", &p, &t); err == nil {
				parent, trace = spanID(p), t
			}
		}
		id := tr.start("fldist.Handler", parent, trace, 0)
		h.ServeHTTP(w, req)
		tr.end(id)
	})
}

// sinkWriter is the ResponseWriter of handler-direct calls (the serve.pull
// round clock and the layer probes): status and headers kept, body dropped.
type sinkWriter struct {
	h    http.Header
	code int
}

func newSinkWriter() *sinkWriter { return &sinkWriter{h: http.Header{}} }

func (w *sinkWriter) Header() http.Header         { return w.h }
func (w *sinkWriter) WriteHeader(c int)           { w.code = c }
func (w *sinkWriter) Write(p []byte) (int, error) { return len(p), nil }

func (w *sinkWriter) reset() {
	clear(w.h)
	w.code = 0
}

func (w *sinkWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// serveModel is the parameter vector the serve workloads move: the paper's
// VGG16-S at width 8, initialised from the seed.
type serveModel struct {
	build  func() *nn.Model
	params []float64
	bn     []float64
	topK   int
}

func newServeModel(cfg *config) *serveModel {
	build := func() *nn.Model { return cfg.size.serveModel(rand.New(rand.NewSource(cfg.seed))) }
	m := build()
	sm := &serveModel{build: build, params: nn.ExportParams(m), bn: nn.ExportBNStats(m)}
	sm.topK = max(len(sm.params)/64, 1)
	return sm
}

// pushBody is one synthetic client's reusable push: a seeded delta,
// quantized and framed once. The delta does not depend on the pulled base,
// so only the round field changes between pushes.
type pushBody struct {
	id     int
	weight float64
	comp   fldist.Compression
	body   []byte
	pFrame []byte
	bnVals []float64 // the BN delta as the server decodes it
}

// newPushBody frames client id's update: dense 8-bit for even ids, 4-bit
// top-k sparse for odd ones — the mixed fleet of the serve workloads.
func newPushBody(sm *serveModel, id int, seed int64) *pushBody {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(id)))
	delta := make([]float64, len(sm.params))
	for i := range delta {
		delta[i] = 1e-3 * rng.NormFloat64()
	}
	bnDelta := make([]float64, len(sm.bn))
	for i := range bnDelta {
		bnDelta[i] = 1e-4 * rng.NormFloat64()
	}
	p := &pushBody{id: id, weight: float64(1 + id)}
	var bnFrame []byte
	if id%2 == 0 {
		p.comp = fldist.Compression{Bits: 8, Chunk: serveChunk}
		p.pFrame = quant.Encode(quant.QuantizeChunks(delta, 8, serveChunk))
		bnFrame, p.bnVals = quant.EncodeRaw(bnDelta), bnDelta
	} else {
		p.comp = fldist.Compression{Bits: 4, Chunk: serveChunk, TopK: sm.topK}
		idx := quant.TopKIndices(delta, sm.topK)
		p.pFrame = quant.EncodeSparse(delta, idx, 4, serveChunk, nil)
		// A top-k client sends its BN delta as a dense 8-bit frame.
		q := quant.QuantizeChunks(bnDelta, 8, serveChunk)
		bnFrame, p.bnVals = quant.Encode(q), q.Dequantize()
	}
	b := make([]byte, 0, 21+len(p.pFrame)+len(bnFrame))
	b = append(b, updateMagic...)
	b = append(b, envelopeVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(id))
	b = binary.LittleEndian.AppendUint32(b, 0) // round, patched per push
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.weight))
	b = append(b, p.pFrame...)
	b = append(b, bnFrame...)
	p.body = b
	return p
}

// reconstruct returns what the server must fold for this push given the
// base vectors it served at the push's codec: base + dequantized delta,
// with the same operation per element as the handler.
func (p *pushBody) reconstruct(baseP, baseBN []float64) (params, bn []float64, err error) {
	f, err := quant.Decode(p.pFrame)
	if err != nil {
		return nil, nil, err
	}
	params = append([]float64(nil), baseP...)
	if f.IsSparse() {
		f.Sparse.AddTo(params)
	} else {
		for i, d := range f.Q.Dequantize() {
			params[i] = d + baseP[i]
		}
	}
	bn = make([]float64, len(baseBN))
	for i := range bn {
		bn[i] = p.bnVals[i] + baseBN[i]
	}
	return params, bn, nil
}

// request is the push of the shared body for the given round, addressed to
// the server at base — or to anything, for a handler-direct call. The body
// is shared: a client has one push in flight at a time.
func (p *pushBody) request(base string, round int) *http.Request {
	binary.LittleEndian.PutUint32(p.body[updateRoundOff:], uint32(round))
	req, err := http.NewRequest(http.MethodPost, base+"/update", &rewindReader{b: p.body})
	if err != nil {
		panic(err) // constant method, URL from a listener address; unreachable
	}
	req.ContentLength = int64(len(p.body))
	req.Header.Set("Content-Type", contentTypeDelta)
	return req
}

// directURL stands in for a server address in handler-direct requests.
const directURL = "http://bench"

// post sends the body for the given round over HTTP and returns the status.
func (p *pushBody) post(hc *http.Client, url string, round int, spanRef string) (int, error) {
	req := p.request(url, round)
	if spanRef != "" {
		req.Header.Set(spanHeader, spanRef)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Fldist-Duplicate") != "" {
		return http.StatusAlreadyReported, nil // a 200 that did not count
	}
	return resp.StatusCode, nil
}

// rewindReader is a request body over a shared byte slice, so a push does
// not copy its body; Close is a no-op so net/http cannot invalidate it.
type rewindReader struct {
	b   []byte
	off int
}

func (r *rewindReader) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

func (r *rewindReader) Close() error { return nil }

// pulledBase pulls the model once through a real fldist.Client at the given
// codec and returns the exact vectors the client reconstructed — the base
// the server reconstructs a push at that codec against.
func pulledBase(ctx context.Context, r *rig, sm *serveModel, comp *fldist.Compression) (params, bn []float64, err error) {
	c := newRealClient(r, sm.build(), 0, comp, nil)
	if _, err = c.Pull(ctx); err != nil {
		return nil, nil, err
	}
	return nn.ExportParams(c.Model), nn.ExportBNStats(c.Model), nil
}

// newRealClient is a production fldist.Client against the rig; its data and
// hyperparameters are only needed by workloads that train.
func newRealClient(r *rig, model nn.Layer, id int, comp *fldist.Compression, cur *atomic.Int64) *fldist.Client {
	c := &fldist.Client{ID: id, BaseURL: r.url, HTTP: r.client(cur), Model: model, Cfg: fl.DefaultConfig()}
	if comp != nil {
		cc := *comp
		c.Compression = &cc
	}
	return c
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// maxAbsDiff is the largest element-wise distance between two vectors of
// one length.
func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		d = max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// pushInst is serve.push: C synthetic pushers against a sharded synchronous
// server whose quorum is C, so every C pushes fold and advance a round.
type pushInst struct {
	rig    *rig
	sm     *serveModel
	bodies []*pushBody
	hc     *http.Client
	round  int    // next round to push
	ok200  int64  // counted pushes so far, warm-up included
	sent   int64  // body bytes of those pushes
	golden string // "" when the golden round matched
}

func setupPush(cfg *config) (instance, error) {
	sm := newServeModel(cfg)
	srv := fldist.NewServer(sm.params, sm.bn, cfg.workers)
	r, err := newRig(srv, cfg.tr)
	if err != nil {
		return nil, err
	}
	p := &pushInst{rig: r, sm: sm, hc: &http.Client{Transport: r.tp, Timeout: 30 * time.Second}}
	for id := 0; id < cfg.workers; id++ {
		p.bodies = append(p.bodies, newPushBody(sm, id, cfg.seed))
	}
	// Warm-up is the golden round: pull the base each codec serves through a
	// real client, push every body once, and hold the folded snapshot
	// against fl.WeightedAverage over what the server must have
	// reconstructed.
	if err := p.goldenRound(); err != nil {
		r.close()
		return nil, err
	}
	// Then a short stretch of ordinary rounds, so the measured phase starts
	// on warm connections, pools and heap.
	p.phase(nil, cfg.size.warm.Seconds())
	return p, nil
}

func (p *pushInst) goldenRound() error {
	ctx := context.Background()
	var vecs, bns [][]float64
	var weights []float64
	for _, b := range p.bodies {
		baseP, baseBN, err := pulledBase(ctx, p.rig, p.sm, &b.comp)
		if err != nil {
			return fmt.Errorf("golden round pull: %w", err)
		}
		v, bn, err := b.reconstruct(baseP, baseBN)
		if err != nil {
			return err
		}
		vecs, bns, weights = append(vecs, v), append(bns, bn), append(weights, b.weight)
	}
	for _, b := range p.bodies {
		code, err := b.post(p.hc, p.rig.url, p.round, "")
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("golden round push by client %d: status %d: %v", b.id, code, err)
		}
		p.ok200++
		p.sent += int64(len(b.body))
	}
	p.round++
	gotP, gotBN := p.rig.srv.Snapshot()
	if !bitsEqual(gotP, fl.WeightedAverage(vecs, weights)) || !bitsEqual(gotBN, fl.WeightedAverage(bns, weights)) {
		p.golden = "golden round: Snapshot() differs from fl.WeightedAverage over the same (id, weight, vector) set"
	}
	return nil
}

func (p *pushInst) close() { p.rig.close() }

// sample is one measured request.
type sample struct {
	at time.Duration // completion time since the phase began
	ms float64
	ok bool
}

// pushPhase is one measured stretch of serve.push.
type pushPhase struct {
	samples   []sample
	conflicts int
	elapsed   time.Duration
}

// phase drives the pushers for the given time. It is a closed loop with a
// harness barrier: a coordinator releases every pusher for round r and waits
// for all their replies before round r+1. The push that fills the quorum
// returns only after the fold, so when the barrier opens the server is at
// r+1 and no pusher ever polls /round.
func (p *pushInst) phase(tr *tracer, seconds float64) pushPhase {
	n := len(p.bodies)
	type job struct {
		round int
		span  spanID
	}
	type reply struct {
		sample
		code int
	}
	jobs := make([]chan job, n)
	results := make(chan reply, n) // one reply per pusher per round
	begin := time.Now()
	for w := 0; w < n; w++ {
		jobs[w] = make(chan job)
		go func(b *pushBody, in <-chan job) {
			for j := range in {
				id := tr.start("http.push", j.span, j.round, b.id)
				ref := ""
				if id != noSpan {
					ref = spanHeaderValue(id, j.round)
				}
				t0 := time.Now()
				code, err := b.post(p.hc, p.rig.url, j.round, ref)
				d := time.Since(t0)
				tr.end(id)
				if err != nil {
					code = -1
				}
				results <- reply{sample{time.Since(begin), float64(d) / 1e6, code == http.StatusOK}, code}
			}
		}(p.bodies[w], jobs[w])
	}
	var ph pushPhase
	deadline := begin.Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		rs := tr.start("bench.round", noSpan, p.round, 0)
		for w := range jobs {
			jobs[w] <- job{p.round, rs}
		}
		for range jobs {
			r := <-results
			ph.samples = append(ph.samples, r.sample)
			if r.ok {
				p.ok200++
			}
			if r.code == http.StatusConflict {
				ph.conflicts++
			}
		}
		tr.end(rs)
		for _, b := range p.bodies {
			p.sent += int64(len(b.body))
		}
		// Resynchronise from the server rather than assume: after a failed
		// push the round did not advance.
		p.round = p.rig.srv.Round()
	}
	ph.elapsed = time.Since(begin)
	for w := range jobs {
		close(jobs[w])
	}
	return ph
}

func (p *pushInst) run(cfg *config) (*report, error) {
	rep := &report{layer: map[string]float64{}}
	n := len(p.bodies)
	var before fldist.Stats
	var phases []pushPhase
	tracedSplit(cfg, func(tr *tracer, seconds float64) {
		before = p.rig.srv.Stats()
		phases = append(phases, p.phase(tr, seconds))
	})
	main := phases[len(phases)-1]
	if len(phases) == 2 {
		base, _, _ := windowed(phases[0].samples, phases[0].elapsed, 2*time.Second)
		traced, _, _ := windowed(main.samples, main.elapsed, 2*time.Second)
		rep.layer["trace_overhead_frac"] = 1 - traced/base
	}
	for _, ph := range phases {
		for _, s := range ph.samples {
			rep.attempted++
			if !s.ok {
				rep.failed++
			}
		}
	}
	for _, s := range main.samples {
		if s.ok {
			rep.latMS = append(rep.latMS, s.ms)
		}
	}
	counted := float64(len(rep.latMS))
	st := p.rig.srv.Stats()
	rep.check(p.golden == "", "%s", p.golden)
	rep.check(st.UpdatesRaw+st.UpdatesCompressed == p.ok200,
		"server admitted %d updates, clients saw %d counted 200s", st.UpdatesRaw+st.UpdatesCompressed, p.ok200)
	rep.check(int64(st.RoundsCompleted)*int64(n) == p.ok200,
		"%d rounds completed with quorum %d, but %d updates admitted", st.RoundsCompleted, n, p.ok200)
	rep.check(st.BytesInCompressed == p.sent && st.BytesInRaw == 0,
		"server read %d compressed + %d raw bytes, clients sent %d", st.BytesInCompressed, st.BytesInRaw, p.sent)
	rep.check(st.UpdatesSparse == int64(st.RoundsCompleted)*int64(n/2),
		"%d sparse updates over %d rounds of %d sparse pushers", st.UpdatesSparse, st.RoundsCompleted, n/2)
	snapP, _ := p.rig.srv.Snapshot()
	finite := true
	for _, x := range snapP {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			finite = false
		}
	}
	rep.check(finite, "the folded model holds a non-finite value")

	rep.ops = counted
	rep.throughput, rep.tailMS, rep.tailNote = windowed(main.samples, main.elapsed, 2*time.Second)
	if counted > 0 {
		rep.wireBytesPerOp = float64(st.BytesInCompressed-before.BytesInCompressed) / counted
	}
	statsLayer(rep.layer, before, st, main.conflicts)
	httpShare(rep.layer, cfg.tr)
	rep.notes = append(rep.notes, fmt.Sprintf("%d params + %d bn, %d pushers (dense 8-bit / 4-bit top-%d), %d rounds in %.2fs, %d shards",
		len(p.sm.params), len(p.sm.bn), n, p.sm.topK, len(main.samples)/n, main.elapsed.Seconds(), st.Shards))
	return rep, nil
}

// windowed is how the serve workloads make their rate and tail steady: the
// run is cut into windows of the given length, the rate is the median
// window's count over the window, and the tail is each window's latency at
// the highest percentile its own sample count supports, again as the median
// over windows. A single stall then moves one window, not the metric. The
// window is chosen per workload so that its sample count sits well inside
// one rung of the percentile ladder. A run shorter than one window is one
// window of its own length; the part of a run after its last whole window is
// left out.
func windowed(samples []sample, elapsed, window time.Duration) (perSec, tailMS float64, note string) {
	nw := int(elapsed / window)
	if nw == 0 {
		nw, window = 1, elapsed
	}
	lat := make([][]float64, nw)
	for _, s := range samples {
		if w := int(s.at / window); s.ok && w < nw {
			lat[w] = append(lat[w], s.ms)
		}
	}
	var rates, tails, qs []float64
	for _, w := range lat {
		rates = append(rates, float64(len(w))/window.Seconds())
		if len(w) > 0 {
			sorted := stat.Sorted(w)
			q := stat.TailQ(len(sorted))
			tails, qs = append(tails, stat.Percentile(sorted, q)), append(qs, q)
		}
	}
	return stat.Median(rates), stat.Median(tails),
		fmt.Sprintf("p%g per window, median of %d windows of %v", 100*stat.Median(qs), nw, window.Round(time.Millisecond))
}

// statsLayer records the server-side counters of a serve workload as
// per-layer values: deltas over the measured phase, except the admit
// percentiles, which the server keeps over its own sliding window.
func statsLayer(layer map[string]float64, before, after fldist.Stats, conflicts int) {
	layer["fldist.served_builds"] = float64(after.ServedBuilds - before.ServedBuilds)
	layer["fldist.delta_pulls"] = float64(after.DeltaPulls - before.DeltaPulls)
	layer["fldist.cold_pulls"] = float64(after.ColdPulls - before.ColdPulls)
	layer["fldist.admit_p50_us"] = after.AdmitP50Micros
	layer["fldist.admit_p99_us"] = after.AdmitP99Micros
	layer["fldist.duplicates_dropped"] = float64(after.DuplicatesDropped - before.DuplicatesDropped)
	layer["fldist.conflicts_409"] = float64(conflicts)
}

// httpShare is the part of client-seen request time spent outside the
// server's handler — connection handling, net/http on both ends, loopback —
// as 1 − handler time ÷ request time over the handler spans that name a
// client span as their parent.
func httpShare(layer map[string]float64, tr *tracer) {
	spans := tr.finished()
	var handler, request int64
	for _, s := range spans {
		if s.Name != "fldist.Handler" || s.Parent == noSpan || s.End < s.Start {
			continue
		}
		if p := spans[s.Parent]; p.End >= p.Start {
			handler += s.End - s.Start
			request += p.End - p.Start
		}
	}
	if request > 0 {
		layer["fldist.http_share"] = 1 - float64(handler)/float64(request)
	}
}
