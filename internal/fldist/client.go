package fldist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"fedprophet/internal/attack"
	"fedprophet/internal/data"
	"fedprophet/internal/fl"
	"fedprophet/internal/nn"
	"fedprophet/internal/quant"
)

// Client is one federated participant talking to a parameter Server over
// HTTP. It owns a local model replica (structurally identical to the
// server's), its local data subset, and the training hyperparameters.
type Client struct {
	ID       int
	BaseURL  string
	HTTP     *http.Client
	Model    nn.Layer
	Subset   *data.Subset
	Cfg      fl.Config
	Rng      *rand.Rand
	PGDSteps int // 0 = standard training

	// Async switches RunRounds to the buffered-aggregation pipeline —
	// pull → train → push with no round barrier — for servers running
	// WithBufferedAggregation. A push is counted as long as its base round
	// is inside the server's staleness window, so a slow client's training
	// pass is not discarded just because faster clients committed rounds
	// meanwhile.
	Async bool

	// StaleRetrains counts training passes RunRounds had to throw away
	// because the server had aggregated past the pushed base round (HTTP
	// 409): every increment is wasted client compute. Against a buffered
	// server with an adequate staleness window this stays 0 even for
	// stragglers.
	StaleRetrains int

	// Compression, when non-nil, requests the compressed delta wire
	// protocol: Pull asks for a chunk-quantized global model and Push sends
	// quantized deltas against the pulled base with error feedback. If the
	// server does not echo the codec negotiation header, the client falls
	// back to the raw gob protocol transparently.
	Compression *Compression

	// negotiated reports whether the last Pull established the compressed
	// protocol with the server.
	negotiated bool
	// baseParams/baseBN are the exact (dequantized) global values the last
	// compressed Pull delivered — the base the next Push's delta is taken
	// against, and the base the server will reconstruct with.
	baseParams, baseBN []float64
	// errParams carries the quantization residual of the previous
	// compressed Push into the next round's parameter delta (error
	// feedback), so per-round compression error stays bounded instead of
	// accumulating in the global model. BN statistics travel raw and need
	// no residual.
	errParams []float64
	// residualRound is 1 + the round whose push last committed the
	// residual, so a redundant re-push of an already-acknowledged round
	// cannot advance the feedback state twice. 0 means none committed.
	residualRound int
	// errBN carries the residual of the quantized BN delta frames a top-k
	// push sends (bnDeltaBits, error-fed like the params); dense pushes ship
	// the BN delta raw and keep no residual.
	errBN []float64
	// heldRound/hasChain are the delta-downlink state: the chain round whose
	// exact base vectors baseParams/baseBN currently hold. A delta-mode pull
	// declares heldRound so the server sends only the frames from there to
	// the chain head; with hasChain false (first pull, or after a failed
	// catch-up left the base torn) the pull goes cold and lands on the chain
	// head whole.
	heldRound int
	hasChain  bool

	// testAfterTrain, when non-nil, runs after every local training pass
	// and before the push. Tests use it to simulate stragglers without
	// touching the training loop.
	testAfterTrain func()
}

// Pull fetches the current global model and loads it into the local replica.
// It returns the server round the blob belongs to. Canceling ctx aborts the
// request. With Compression set, Pull negotiates the compressed protocol:
// it requests a chunk-quantized model, remembers the exact dequantized base
// for the next Push's delta, and falls back to the raw gob protocol if the
// server does not acknowledge the codec.
func (c *Client) Pull(ctx context.Context) (int, error) {
	var comp Compression
	if c.Compression != nil {
		var err error
		if comp, err = c.Compression.normalize(); err != nil {
			return 0, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/model", nil)
	if err != nil {
		return 0, fmt.Errorf("fldist: pull: %w", err)
	}
	if c.Compression != nil {
		v := codecValue(comp)
		if comp.Delta && c.hasChain {
			// Declare the chain round we hold so the server can answer with
			// just the delta frames from there to the head.
			v += ";base=" + strconv.Itoa(c.heldRound)
		}
		req.Header.Set(codecHeader, v)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, fmt.Errorf("fldist: pull: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return 0, fmt.Errorf("fldist: pull: %s: %s", resp.Status, body)
	}
	switch resp.Header.Get("Content-Type") {
	case contentTypeModel:
		round, err := c.streamModelEnvelope(resp.Body)
		if err != nil {
			return 0, fmt.Errorf("fldist: pull: %w", err)
		}
		if comp.Delta {
			// A cold delta-mode pull lands exactly on the chain head; later
			// pulls catch up from here.
			c.hasChain = true
			c.heldRound = round
		}
		nn.ImportParams(c.Model, c.baseParams)
		if len(c.baseBN) > 0 {
			nn.ImportBNStats(c.Model, c.baseBN)
		}
		return round, nil
	case contentTypeModelDelta:
		round, err := c.streamDeltaEnvelope(resp.Body)
		if err != nil {
			return 0, fmt.Errorf("fldist: pull: %w", err)
		}
		nn.ImportParams(c.Model, c.baseParams)
		if len(c.baseBN) > 0 {
			nn.ImportBNStats(c.Model, c.baseBN)
		}
		return round, nil
	}
	var blob ModelBlob
	if err := gob.NewDecoder(resp.Body).Decode(&blob); err != nil {
		return 0, fmt.Errorf("fldist: decoding model: %w", err)
	}
	if err := c.checkModelShape(len(blob.Params), len(blob.BN)); err != nil {
		return 0, err
	}
	c.negotiated = false
	c.hasChain = false
	nn.ImportParams(c.Model, blob.Params)
	if len(blob.BN) > 0 {
		nn.ImportBNStats(c.Model, blob.BN)
	}
	return blob.Round, nil
}

// streamModelEnvelope decodes a compressed pull body incrementally: the
// 9-byte envelope header, then the params and BN frames chunk-by-chunk into
// c.baseParams / c.baseBN — which are reused across rounds, so a
// steady-state client pulls with O(chunk) transient allocation instead of
// buffering the wire body and materializing fresh vectors every round.
func (c *Client) streamModelEnvelope(body io.Reader) (int, error) {
	// The reused base buffers are overwritten in place below, so a pull that
	// fails mid-stream leaves them half-old/half-new. Dropping `negotiated`
	// up front (restored only on full success) makes that state harmless: a
	// caller that pushes after a failed pull takes the raw path, which
	// carries exact parameters and needs no base.
	c.negotiated = false
	var hdr [9]byte
	if _, err := io.ReadFull(body, hdr[:]); err != nil {
		return 0, fmt.Errorf("model envelope header: %w", err)
	}
	if string(hdr[:4]) != modelMagic {
		return 0, fmt.Errorf("model envelope magic %q", hdr[:4])
	}
	if hdr[4] != envVersion {
		return 0, fmt.Errorf("model envelope version %d, want %d", hdr[4], envVersion)
	}
	round := int(binary.LittleEndian.Uint32(hdr[5:9]))
	pd, err := quant.NewStreamDecoder(body)
	if err != nil {
		return 0, fmt.Errorf("model params frame: %w", err)
	}
	// Shape-check before decoding so a server seeded with a different
	// architecture is an error, not a corrupted local replica.
	wantP := nn.NumParams(c.Model)
	wantB := nn.NumBNStats(c.Model)
	if pd.Len() != wantP {
		return 0, fmt.Errorf("server model has %d params, local replica has %d", pd.Len(), wantP)
	}
	c.baseParams = resize(c.baseParams, pd.Len())
	if err := pd.DecodeAll(c.baseParams); err != nil {
		return 0, fmt.Errorf("model params frame: %w", err)
	}
	bd, err := quant.NewStreamDecoder(body)
	if err != nil {
		return 0, fmt.Errorf("model bn frame: %w", err)
	}
	if bd.Len() != wantB {
		return 0, fmt.Errorf("server model has %d bn stats, local replica has %d", bd.Len(), wantB)
	}
	c.baseBN = resize(c.baseBN, bd.Len())
	if err := bd.DecodeAll(c.baseBN); err != nil {
		return 0, fmt.Errorf("model bn frame: %w", err)
	}
	// io.ReadFull distinguishes "no byte left" (0, io.EOF) from a reader
	// that returns data alongside io.EOF or (0, nil) — a bare Read would
	// miss trailing garbage on the former and spuriously fail on the latter.
	var one [1]byte
	if _, err := io.ReadFull(body, one[:]); err != io.EOF {
		return 0, fmt.Errorf("model envelope has trailing bytes")
	}
	c.negotiated = true
	return round, nil
}

// streamDeltaEnvelope decodes an FPD1 catch-up body: the 17-byte header
// (magic, version, from-round, to-round, entry count), then per entry a
// round number and two quantized delta frames — params, then BN — each
// applied onto the held chain base in place. Sparse frames scatter-add their
// k values directly; dense frames stream chunk-by-chunk through an O(chunk)
// scratch. The applied bases are bit-identical to the server's chain entries
// (and therefore to what a cold-pulling client receives whole), which is
// what lets the next push's delta resolve against the server-side base
// registry exactly.
func (c *Client) streamDeltaEnvelope(body io.Reader) (int, error) {
	// As in streamModelEnvelope, the in-place mutation of the base buffers
	// makes a mid-stream failure leave them torn: dropping negotiated AND
	// hasChain up front (both restored only on full success) forces the next
	// pull cold, which rewrites the base whole.
	c.negotiated = false
	c.hasChain = false
	var hdr [17]byte
	if _, err := io.ReadFull(body, hdr[:]); err != nil {
		return 0, fmt.Errorf("model delta header: %w", err)
	}
	if string(hdr[:4]) != deltaMagic {
		return 0, fmt.Errorf("model delta magic %q", hdr[:4])
	}
	if hdr[4] != envVersion {
		return 0, fmt.Errorf("model delta version %d, want %d", hdr[4], envVersion)
	}
	from := int(binary.LittleEndian.Uint32(hdr[5:9]))
	to := int(binary.LittleEndian.Uint32(hdr[9:13]))
	count := int(binary.LittleEndian.Uint32(hdr[13:17]))
	if from != c.heldRound {
		return 0, fmt.Errorf("model delta from round %d, client holds %d", from, c.heldRound)
	}
	wantP := nn.NumParams(c.Model)
	wantB := nn.NumBNStats(c.Model)
	if len(c.baseParams) != wantP || len(c.baseBN) != wantB {
		return 0, fmt.Errorf("model delta against a base of %d+%d values, replica has %d+%d",
			len(c.baseParams), len(c.baseBN), wantP, wantB)
	}
	held := from
	for e := 0; e < count; e++ {
		var rb [4]byte
		if _, err := io.ReadFull(body, rb[:]); err != nil {
			return 0, fmt.Errorf("model delta entry %d round: %w", e, err)
		}
		r := int(binary.LittleEndian.Uint32(rb[:]))
		if r <= held {
			return 0, fmt.Errorf("model delta entry %d round %d not after %d", e, r, held)
		}
		if err := applyDeltaFrame(body, c.baseParams, wantP); err != nil {
			return 0, fmt.Errorf("model delta entry %d params frame: %w", e, err)
		}
		if err := applyDeltaFrame(body, c.baseBN, wantB); err != nil {
			return 0, fmt.Errorf("model delta entry %d bn frame: %w", e, err)
		}
		held = r
	}
	if held != to {
		return 0, fmt.Errorf("model delta ends at round %d, header says %d", held, to)
	}
	var one [1]byte
	if _, err := io.ReadFull(body, one[:]); err != io.EOF {
		return 0, fmt.Errorf("model delta has trailing bytes")
	}
	c.heldRound = to
	c.hasChain = true
	c.negotiated = true
	return to, nil
}

// applyDeltaFrame streams one quantized delta frame and adds it onto dst:
// sparse frames scatter-add their stored coordinates, dense frames stream
// chunk-by-chunk through a scratch bounded by the chunk size.
func applyDeltaFrame(body io.Reader, dst []float64, want int) (err error) {
	d, err := quant.NewStreamDecoder(body)
	if err != nil {
		return err
	}
	if d.Len() != want {
		return fmt.Errorf("frame carries %d values, want %d", d.Len(), want)
	}
	if d.IsSparse() {
		return d.ApplySparse(dst)
	}
	if d.IsRaw() {
		return fmt.Errorf("raw frame on a delta chain")
	}
	scratch := make([]float64, min(d.Chunk(), want))
	off := 0
	for l := d.NextLen(); l > 0; l = d.NextLen() {
		buf := scratch[:l]
		if err := d.Next(buf); err != nil {
			return err
		}
		out := dst[off : off+l]
		for i := range out {
			out[i] += buf[i]
		}
		off += l
	}
	return nil
}

// resize returns v with exactly length n, reusing its backing array when it
// is already big enough.
func resize(v []float64, n int) []float64 {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]float64, n)
}

// checkModelShape rejects a pulled model whose vector lengths do not match
// the local replica — a server seeded with a different architecture — as an
// error instead of letting nn.ImportParams panic the client process.
func (c *Client) checkModelShape(nParams, nBN int) error {
	wantP := nn.NumParams(c.Model)
	wantB := nn.NumBNStats(c.Model)
	if nParams != wantP || nBN != wantB {
		return fmt.Errorf("fldist: pull: server model shape %d params + %d bn stats, local replica has %d + %d",
			nParams, nBN, wantP, wantB)
	}
	return nil
}

// TrainLocal runs the configured number of local (adversarial) SGD
// iterations on the local subset, mirroring the in-process trainers.
func (c *Client) TrainLocal(lr float64) float64 {
	opt := nn.NewSGD(lr, c.Cfg.Momentum, c.Cfg.WeightDecay)
	nn.ResetMomentum(c.Model.Params())
	batches := data.Batches(c.Subset.Indices, c.Cfg.Batch, c.Rng)
	if len(batches) == 0 {
		return 0
	}
	total := 0.0
	iters := 0
	for iters < c.Cfg.LocalIters {
		for _, b := range batches {
			if iters >= c.Cfg.LocalIters {
				break
			}
			x, y := data.Batch(c.Subset.Parent, b)
			if c.PGDSteps > 0 {
				x = attack.Perturb(attack.PGDConfig(c.Cfg.Eps, c.PGDSteps), x,
					attack.CEGradFn(c.Model, y), c.Rng)
			}
			out := c.Model.Forward(x, true)
			loss, g := nn.SoftmaxCrossEntropy(out, y)
			nn.ZeroGrads(c.Model)
			c.Model.Backward(g)
			opt.Step(c.Model.Params())
			total += loss
			iters++
		}
	}
	return total / float64(iters)
}

// Push uploads the trained replica for the given round. counted reports
// whether the server added this update to the round's aggregate; it is false
// when the server had already counted an update from this client for the
// round (the X-Fldist-Duplicate marker) and idempotently dropped this copy.
// Canceling ctx aborts the request. Pushes are idempotent per
// (client, round): the server counts only the first copy, so retrying after
// a lost response is safe — the retry just reports counted=false.
//
// Sentinel contract: a 409 response (the server aggregated past the pushed
// round — or, on a buffered server, past its staleness window) is reported
// as an error satisfying errors.Is(err, ErrStaleRound), so the caller knows
// to re-pull and retrain. Always match it with errors.Is, never ==; the
// sentinel may arrive wrapped with call-site context.
func (c *Client) Push(ctx context.Context, round int) (counted bool, err error) {
	if c.Compression != nil && c.negotiated {
		return c.pushDelta(ctx, round)
	}
	u := Update{
		ClientID: c.ID,
		Round:    round,
		Weight:   float64(c.Subset.Len()),
		Params:   nn.ExportParams(c.Model),
		BN:       nn.ExportBNStats(c.Model),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(u); err != nil {
		return false, fmt.Errorf("fldist: encoding update: %w", err)
	}
	return c.postUpdate(ctx, contentTypeGob, "", buf.Bytes())
}

// pushDelta sends the compressed update: the quantized difference between
// the trained replica and the base pulled this round, plus the residual
// carried over from the previous compressed push (error feedback). The new
// residual — what quantization lost this time — is committed only once the
// server acknowledges the update with 200, so a failed or stale push does
// not corrupt the feedback state.
func (c *Client) pushDelta(ctx context.Context, round int) (counted bool, err error) {
	comp, err := c.Compression.normalize()
	if err != nil {
		return false, err
	}
	params := nn.ExportParams(c.Model)
	bn := nn.ExportBNStats(c.Model)
	if len(params) != len(c.baseParams) || len(bn) != len(c.baseBN) {
		return false, fmt.Errorf("fldist: push: local model shape changed since pull")
	}
	if len(c.errParams) != len(params) {
		// Shape changed since the residual was recorded (or first push):
		// a stale residual must not be folded into the delta.
		c.errParams = nil
	}
	var pFrame []byte
	var eP []float64
	if comp.TopK > 0 {
		// Top-k sparse uplink: form the error-fed delta, keep only the K
		// largest-magnitude coordinates as a sparse frame, and let the
		// residual absorb everything sparsification dropped — an unsent
		// coordinate's entire delta rides to the next round, so sparsifying
		// delays small movements instead of losing them.
		d := formDelta(params, c.baseParams, c.errParams)
		idx := quant.TopKIndices(d, comp.TopK)
		deq := make([]float64, len(idx))
		pFrame = quant.EncodeSparse(d, idx, comp.Bits, comp.Chunk, deq)
		for j, ix := range idx {
			d[ix] -= deq[j]
		}
		eP = d
	} else {
		var qP quant.Chunked
		qP, eP = deltaQuantize(params, c.baseParams, c.errParams, comp)
		pFrame = quant.Encode(qP)
	}
	// The BN statistics delta: raw on a dense push — a handful of values
	// whose quantization damage (running variances crushed toward zero) far
	// outweighs the bytes, and raw means no residual to feed back. On a
	// top-k push the params frame is so small that raw BN would dominate the
	// body, so BN travels as a dense bnDeltaBits frame with its own
	// error-feedback residual instead.
	var bnFrame []byte
	var eBN []float64
	if comp.TopK > 0 {
		if len(c.errBN) != len(bn) {
			c.errBN = nil
		}
		dB := formDelta(bn, c.baseBN, c.errBN)
		qB := quant.QuantizeChunks(dB, bnDeltaBits, comp.Chunk)
		bnFrame = quant.Encode(qB)
		deqB := qB.Dequantize()
		for i := range dB {
			dB[i] -= deqB[i]
		}
		eBN = dB
	} else {
		dB := formDelta(bn, c.baseBN, nil)
		bnFrame = quant.EncodeRaw(dB)
	}
	body, err := encodeUpdateEnvelope(c.ID, round, float64(c.Subset.Len()), pFrame, bnFrame)
	if err != nil {
		return false, err
	}
	// A delta-downlink push declares its codec so the server resolves the
	// training base out of the chain's per-round base registry instead of
	// the dense served cache.
	codec := ""
	if comp.Delta {
		codec = codecValue(comp)
	}
	counted, err = c.postUpdate(ctx, contentTypeDelta, codec, body)
	if err == nil && c.residualRound != round+1 {
		// 200 (counted, or duplicate of an already-counted push of this
		// same delta whose response was lost): the quantized delta is part
		// of the server's round, so the residual advances — once per round.
		c.errParams = eP
		c.errBN = eBN
		c.residualRound = round + 1
	}
	return counted, err
}

// formDelta returns trained − base (+ residual when non-nil), element-wise.
func formDelta(trained, base, residual []float64) []float64 {
	d := make([]float64, len(trained))
	for i := range d {
		d[i] = trained[i] - base[i]
		if residual != nil {
			d[i] += residual[i]
		}
	}
	return d
}

// deltaQuantize forms the error-fed delta d = (params − base) + residual,
// quantizes it, and returns the quantized form together with the next
// residual d − dequantize(q).
func deltaQuantize(params, base, residual []float64, comp Compression) (quant.Chunked, []float64) {
	d := formDelta(params, base, residual)
	q := quant.QuantizeChunks(d, comp.Bits, comp.Chunk)
	deq := q.Dequantize()
	for i := range d {
		d[i] -= deq[i]
	}
	return q, d
}

// postUpdate POSTs one update body and maps the server's verdict to the
// (counted, err) contract shared by both wire protocols. A 409 carrying the
// retry marker is a transient server-side stall (a buffered commit still
// publishing), not a staleness verdict — the identical body is re-sent a
// few times before the push is given up as stale, so a fresh training pass
// is not discarded over a slow commit.
func (c *Client) postUpdate(ctx context.Context, contentType, codec string, body []byte) (bool, error) {
	const retries = 3
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/update",
			bytes.NewReader(body))
		if err != nil {
			return false, fmt.Errorf("fldist: push: %w", err)
		}
		req.Header.Set("Content-Type", contentType)
		if codec != "" {
			req.Header.Set(codecHeader, codec)
		}
		resp, err := c.HTTP.Do(req)
		if err != nil {
			return false, fmt.Errorf("fldist: push: %w", err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			counted := resp.Header.Get("X-Fldist-Duplicate") == ""
			resp.Body.Close()
			return counted, nil
		case http.StatusConflict:
			retry := resp.Header.Get(retryHeader) != ""
			resp.Body.Close()
			if retry && attempt < retries {
				continue
			}
			return false, ErrStaleRound
		default:
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return false, fmt.Errorf("fldist: push: %s: %s", resp.Status, b)
		}
	}
}

// ErrStaleRound signals that the server moved on before this client's
// update arrived (on a buffered server: moved past the staleness window);
// the client should Pull and retrain. Match it with errors.Is — callers and
// intermediaries are free to wrap it.
var ErrStaleRound = errors.New("fldist: update for a stale round")

// RunRounds participates in n federated rounds: pull, train, push, retrying
// on stale rounds (each such retrain is tallied in StaleRetrains).
//
// Against the default synchronous server, after a counted push the client
// waits for the round to advance before pulling again — otherwise a fast
// client would retrain on the unchanged global model and push updates the
// server idempotently drops as duplicates (and mistake those for progress).
//
// With Async set (a server running WithBufferedAggregation), the loop
// pipelines pull → train → push with no round polling between rounds: a
// counted push immediately flows into the next pull, because the buffered
// server accepts the next update even if its base round is a little stale.
// The client only falls back to polling /round when it outruns the buffer —
// its own update is the newest thing on the server and pushing again from
// the same base would be dropped as a duplicate.
//
// Canceling ctx stops between steps and aborts in-flight requests.
func (c *Client) RunRounds(ctx context.Context, n int, lr float64) error {
	if c.Async {
		return c.runRoundsAsync(ctx, n, lr)
	}
	for done := 0; done < n; {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("fldist: client %d stopped after %d rounds: %w", c.ID, done, err)
		}
		round, err := c.Pull(ctx)
		if err != nil {
			return err
		}
		c.trainPass(lr)
		counted, err := c.Push(ctx, round)
		switch {
		case err == nil && counted:
			done++
			if done < n {
				if err := c.awaitRoundAfter(ctx, round); err != nil {
					return err
				}
			}
		case err == nil:
			// Duplicate: an earlier update of ours already counted toward
			// this round. Wait out the aggregation instead of spinning.
			if err := c.awaitRoundAfter(ctx, round); err != nil {
				return err
			}
		case errors.Is(err, ErrStaleRound):
			c.StaleRetrains++
			continue // re-pull and retrain on the fresh model
		default:
			return err
		}
	}
	return nil
}

// runRoundsAsync is the buffered-aggregation participation loop: see
// RunRounds.
func (c *Client) runRoundsAsync(ctx context.Context, n int, lr float64) error {
	lastCounted := -1 // base round of our last counted push
	for done := 0; done < n; {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("fldist: client %d stopped after %d rounds: %w", c.ID, done, err)
		}
		if lastCounted >= 0 {
			// Our previous push counted. If no commit has landed since, a
			// second push from the same base would be dropped as a
			// duplicate, so training now would be wasted work — and so
			// would re-downloading the model just to find that out. Probe
			// the cheap /round first and wait out the commit if needed.
			cur, err := c.Round(ctx)
			if err != nil {
				return err
			}
			if cur == lastCounted {
				if err := c.awaitRoundAfter(ctx, lastCounted); err != nil {
					return err
				}
			}
		}
		round, err := c.Pull(ctx)
		if err != nil {
			return err
		}
		if round == lastCounted {
			// Unreachable while rounds only advance (the probe above saw a
			// newer round before the pull); kept as defense so a surprise
			// never turns into duplicate-push training waste.
			if err := c.awaitRoundAfter(ctx, round); err != nil {
				return err
			}
			continue
		}
		c.trainPass(lr)
		counted, err := c.Push(ctx, round)
		switch {
		case err == nil && counted:
			done++
			lastCounted = round
		case err == nil:
			// Duplicate: a retried push from this base already counted.
			lastCounted = round
		case errors.Is(err, ErrStaleRound):
			// Only past the staleness window — this training pass is lost.
			c.StaleRetrains++
			continue
		default:
			return err
		}
	}
	return nil
}

// trainPass runs one local training pass plus the test straggler hook.
func (c *Client) trainPass(lr float64) {
	c.TrainLocal(lr)
	if c.testAfterTrain != nil {
		c.testAfterTrain()
	}
}

// Round fetches the server's current round number without transferring the
// model blob.
func (c *Client) Round(ctx context.Context) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/round", nil)
	if err != nil {
		return 0, fmt.Errorf("fldist: round: %w", err)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, fmt.Errorf("fldist: round: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("fldist: round: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("fldist: round: %s: %s", resp.Status, body)
	}
	// strconv.Atoi over the trimmed body, not fmt.Sscanf: Sscanf("%d") stops
	// at the first non-digit and would silently accept a corrupted body like
	// "3 oops" as round 3. Anything but a bare decimal is a protocol error.
	round, err := strconv.Atoi(string(bytes.TrimSpace(body)))
	if err != nil {
		return 0, fmt.Errorf("fldist: round: malformed body %q: %w", body, err)
	}
	if round < 0 {
		return 0, fmt.Errorf("fldist: round: negative round %d", round)
	}
	return round, nil
}

// awaitRoundAfter polls the server's round counter (not the full model)
// until it exceeds round, with *jittered* exponential backoff between polls.
// The jitter matters at fleet scale: a synchronous round releases every
// client at the same instant, so a fixed backoff schedule keeps the whole
// fleet polling /round in lockstep — a thundering herd that shows up clearly
// at 64 concurrent clients. Drawing each sleep uniformly from [backoff/2, backoff)
// decorrelates the fleet while keeping the same mean. It returns when the
// aggregation that includes this client's update has completed, or with
// ctx's error on cancellation.
func (c *Client) awaitRoundAfter(ctx context.Context, round int) error {
	backoff := 2 * time.Millisecond
	const maxBackoff = 100 * time.Millisecond
	for {
		cur, err := c.Round(ctx)
		if err != nil {
			return err
		}
		if cur > round {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fldist: client %d canceled waiting for round %d: %w",
				c.ID, round+1, ctx.Err())
		case <-time.After(c.jitter(backoff)):
		}
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// jitter draws a sleep uniformly from [d/2, d). It deliberately does NOT use
// c.Rng: the number of polls depends on wall-clock timing, so consuming the
// training RNG here would make a seeded client's batch order — and therefore
// its trained parameters — timing-dependent. The global source is
// thread-safe and only influences sleep lengths, never results.
func (c *Client) jitter(d time.Duration) time.Duration {
	return jitterDur(d)
}

// jitterDur draws a duration uniformly from [d/2, d) off the global RNG —
// shared by the client's round polling and the edge aggregator's upstream
// retries, so every backoff in the tree is decorrelated the same way.
func jitterDur(d time.Duration) time.Duration {
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	//lint:ignore determinism retry jitter decorrelates clients; it paces requests and never reaches model state
	return time.Duration(half + rand.Int63n(half))
}
