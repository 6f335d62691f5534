package fldist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
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

	// StaleRetrains counts training passes RunRounds had to throw away
	// because the server had aggregated past the pushed base round (HTTP
	// 409): every increment is wasted client compute. Against a buffered
	// server with an adequate staleness window this stays 0 even for
	// stragglers.
	StaleRetrains int

	// Compression, when non-nil, requests the compressed delta form of the
	// wire protocol: Pull asks for a chunk-quantized global model and Push
	// sends quantized deltas against the pulled base with error feedback. If
	// the server does not echo the codec negotiation header, the client falls
	// back to raw frames transparently.
	Compression *Compression

	// negotiated reports whether the last Pull established the compressed
	// protocol with the server (the server echoed the codec header).
	negotiated bool
	// baseParams/baseBN are the exact (dequantized) global values the last
	// Pull delivered — for a compressed client the base the next Push's delta
	// is taken against, and the base the server will reconstruct with.
	// Reused across pulls.
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

	// pushBody/pushCodec are the last push answered 200, by the instance
	// pushServer (serverHeader): awaitRoundAfter re-sends it after a restart.
	pushBody              []byte
	pushCodec, pushServer string

	// retries counts send's waits before a re-send: every time the peer
	// could not answer yet. An edge reports its upstream client's count as
	// upstream.retries.
	retries atomic.Int64

	// testAfterTrain, when non-nil, runs after every local training pass
	// and before the push. Tests use it to simulate stragglers without
	// touching the training loop.
	testAfterTrain func()
}

// Pull fetches the current global model and loads it into the local replica.
// It returns the server round the model belongs to. Canceling ctx aborts the
// request. With Compression set, Pull negotiates the compressed protocol:
// it requests a chunk-quantized model, remembers the exact dequantized base
// for the next Push's delta, and falls back to raw frames if the server does
// not echo the codec.
func (c *Client) Pull(ctx context.Context) (int, error) {
	round, err := c.pull(ctx, nn.NumParams(c.Model), nn.NumBNStats(c.Model))
	if err != nil {
		return 0, err
	}
	nn.ImportParams(c.Model, c.baseParams)
	if len(c.baseBN) > 0 {
		nn.ImportBNStats(c.Model, c.baseBN)
	}
	return round, nil
}

// Caps on the response bodies the client reads into memory whole: /round is
// one decimal, and an error body is only ever quoted in an error message. A
// broken or hostile server streaming more is cut off at the cap.
const (
	maxRoundBody = 64
	maxErrorBody = 1 << 10
)

// errorBody reads at most maxErrorBody bytes of a non-200 response for the
// error message.
func errorBody(r io.Reader) []byte {
	b, _ := io.ReadAll(io.LimitReader(r, maxErrorBody))
	return b
}

// pull is the client's wire core for GET /model: it decodes the model into
// c.baseParams / c.baseBN — buffers reused across pulls, so a caller that
// keeps a pulled vector past the next pull must copy it — and needs no local
// model: wantP/wantB are the expected vector lengths, negative to accept the
// server's shape on first contact. The compressed protocol is in force
// exactly when the server echoes the codec header; without the echo the
// frames are raw and Push sends raw frames.
func (c *Client) pull(ctx context.Context, wantP, wantB int) (int, error) {
	var comp Compression
	codec := ""
	if c.Compression != nil {
		var err error
		if comp, err = c.Compression.normalize(); err != nil {
			return 0, err
		}
		codec = codecValue(comp)
		if comp.Delta && c.hasChain {
			// Declare the chain round we hold so the server can answer with
			// just the delta frames from there to the head.
			codec += ";base=" + strconv.Itoa(c.heldRound)
		}
	}
	resp, err := c.send(ctx, http.MethodGet, "/model", codec, nil)
	if err != nil {
		return 0, fmt.Errorf("fldist: pull: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("fldist: pull: %s: %s", resp.Status, errorBody(resp.Body))
	}
	echoed := c.Compression != nil && resp.Header.Get(codecHeader) != ""
	var round int
	if resp.Header.Get("Content-Type") == contentTypeModelDelta {
		round, err = c.streamDeltaEnvelope(resp.Body, wantP, wantB)
	} else {
		round, err = c.streamModelEnvelope(resp.Body, wantP, wantB)
	}
	if err != nil {
		return 0, fmt.Errorf("fldist: pull: %w", err)
	}
	c.negotiated = echoed
	// A cold delta-mode pull lands exactly on the chain head; later pulls
	// catch up from here. Without the echo there is no chain.
	c.hasChain = echoed && comp.Delta
	c.heldRound = round
	return round, nil
}

// streamModelEnvelope decodes an FPM1 pull body incrementally: the 9-byte
// envelope header, then the params and BN frames — raw or quantized —
// chunk-by-chunk into c.baseParams / c.baseBN, which are reused across
// rounds, so a steady-state client pulls with O(chunk) transient allocation
// instead of buffering the wire body and materializing fresh vectors every
// round. wantP/wantB are the expected lengths (negative: any).
func (c *Client) streamModelEnvelope(body io.Reader, wantP, wantB int) (int, error) {
	// The reused base buffers are overwritten in place below, so a pull that
	// fails mid-stream leaves them half-old/half-new. Dropping `negotiated`
	// and `hasChain` up front (restored only on full success) makes that
	// state harmless: a caller that pushes after a failed pull takes the raw
	// path, which carries exact parameters and needs no base, and the next
	// delta-mode pull goes cold.
	c.negotiated = false
	c.hasChain = false
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
	var err error
	if c.baseParams, err = decodeFrame(body, c.baseParams, wantP); err != nil {
		return 0, fmt.Errorf("model params frame: %w", err)
	}
	if c.baseBN, err = decodeFrame(body, c.baseBN, wantB); err != nil {
		return 0, fmt.Errorf("model bn frame: %w", err)
	}
	// io.ReadFull distinguishes "no byte left" (0, io.EOF) from a reader
	// that returns data alongside io.EOF or (0, nil) — a bare Read would
	// miss trailing garbage on the former and spuriously fail on the latter.
	var one [1]byte
	if _, err := io.ReadFull(body, one[:]); err != io.EOF {
		return 0, fmt.Errorf("model envelope has trailing bytes")
	}
	return round, nil
}

// streamDeltaEnvelope decodes an FPD1 catch-up body: the 17-byte header
// (magic, version, from-round, to-round, entry count), then per entry a
// round number and two quantized delta frames — params, then BN — each
// applied onto the held chain base in place: sparse frames scatter-add their
// k values, dense frames add chunk by chunk. The applied bases are
// bit-identical to the server's chain entries (and therefore to what a
// cold-pulling client receives whole), which is what lets the next push's
// delta resolve against the server-side base registry exactly.
func (c *Client) streamDeltaEnvelope(body io.Reader, wantP, wantB int) (int, error) {
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
	if wantP < 0 {
		wantP, wantB = len(c.baseParams), len(c.baseBN)
	}
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
	return to, nil
}

// decodeFrame decodes one model frame into dst (reused when large enough)
// and returns it. With an expected length (want ≥ 0) the frame must carry
// exactly that many values — a server seeded with a different architecture is
// an error, not a corrupted local replica — and is checked before any
// payload byte is read. With none (an edge's first contact) the length is the
// frame's own claim, so nothing is sized from it: the frame is read whole into
// buffers that grow only as its payload arrives.
func decodeFrame(body io.Reader, dst []float64, want int) ([]float64, error) {
	d, err := quant.NewStreamDecoder(body)
	if err != nil {
		return nil, err
	}
	if want >= 0 {
		if d.Len() != want {
			return nil, fmt.Errorf("server model has %d values, local replica has %d", d.Len(), want)
		}
		dst = resize(dst, want)
		return dst, d.DecodeAll(dst)
	}
	if d.IsSparse() {
		return nil, fmt.Errorf("%w: sparse frame in a model envelope", quant.ErrCodec)
	}
	f, err := d.Frame()
	if err != nil {
		return nil, err
	}
	if f.IsRaw() {
		return f.Raw, nil
	}
	return f.Q.Dequantize(), nil
}

// applyDeltaFrame streams one quantized delta frame, dense or sparse, and
// adds it onto dst under the finiteness limit: a hostile scale cannot write
// ±Inf into the chain base.
func applyDeltaFrame(body io.Reader, dst []float64, want int) error {
	d, err := quant.NewStreamDecoder(body)
	if err != nil {
		return err
	}
	if d.Len() != want {
		return fmt.Errorf("frame carries %d values, want %d", d.Len(), want)
	}
	return d.ApplyDelta(dst, dst, math.MaxFloat64)
}

// resize returns v with exactly length n, reusing its backing array when it
// is already big enough.
func resize(v []float64, n int) []float64 {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]float64, n)
}

// TrainLocal runs the client's local step — fl.LocalTrain, the step every
// in-process method runs — on the replica over the local subset: PGD
// adversarial training with PGDSteps steps at budget Cfg.Eps, or standard
// training when PGDSteps is 0. It returns the mean training loss.
func (c *Client) TrainLocal(lr float64) float64 {
	var atk attack.Config
	if c.PGDSteps > 0 {
		atk = attack.PGDConfig(c.Cfg.Eps, c.PGDSteps)
	}
	loss, _ := fl.LocalTrain(c.Model, c.Subset, c.Cfg, lr, atk, c.Rng)
	return loss
}

// Push uploads the trained replica for the given round. counted reports
// whether the server added this update to the round's aggregate; it is false
// when the server had already counted an update from this client for the
// round (the X-Fldist-Duplicate marker) and idempotently dropped this copy.
// Canceling ctx aborts the request. Pushes are idempotent per
// (client, round): the server counts only the first copy, so the re-send
// that follows a lost response, a refused connection or a busy answer (see
// send) is safe — it just reports counted=false when the first copy landed.
//
// Sentinel contract: a plain 409 response (the server aggregated past the
// pushed round — or, on a buffered server, past its staleness window) is
// reported as an error satisfying errors.Is(err, ErrStaleRound), so the
// caller knows to re-pull and retrain. A 409 carrying the retry marker is
// not stale: send re-sends the same body until the server answers otherwise
// or ctx ends. Always match it with errors.Is, never ==; the sentinel may
// arrive wrapped with call-site context.
func (c *Client) Push(ctx context.Context, round int) (counted bool, err error) {
	if c.Compression != nil && c.negotiated {
		return c.pushDelta(ctx, round)
	}
	body, err := rawUpdate(c.ID, round, float64(c.Subset.Len()),
		nn.ExportParams(c.Model), nn.ExportBNStats(c.Model))
	if err != nil {
		return false, err
	}
	return c.post(ctx, "", body)
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
	// The error-fed delta, top-k sparse or dense as comp says; the sender
	// leaves the next residual in eP.
	eP := formDelta(params, c.baseParams, c.errParams)
	pFrame := sendErrorFed(eP, comp, 1, nil)
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
		eBN = formDelta(bn, c.baseBN, c.errBN)
		bnFrame = sendErrorFed(eBN, Compression{Bits: bnDeltaBits, Chunk: comp.Chunk}, 1, nil)
	} else {
		bnFrame = quant.EncodeRaw(formDelta(bn, c.baseBN, nil))
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
	counted, err = c.post(ctx, codec, body)
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

// formDelta returns (trained − base) + residual, element-wise, or trained −
// base when residual is nil. With a new base as the residual it rebases a
// model vector: newBase + (vec − oldBase), bit for bit, as IEEE addition
// commutes.
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

// post is the client's wire core for POST /update: it sends one FPU1 body
// through send and maps the server's verdict — (counted, nil) on 200, where
// counted is false for a duplicate of an already-counted push; ErrStaleRound
// on a plain 409; any other status, or ctx's end, as a plain error.
func (c *Client) post(ctx context.Context, codec string, body []byte) (bool, error) {
	resp, err := c.send(ctx, http.MethodPost, "/update", codec, body)
	if err != nil {
		return false, fmt.Errorf("fldist: push: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		c.pushBody, c.pushCodec, c.pushServer = body, codec, resp.Header.Get(serverHeader)
		return resp.Header.Get("X-Fldist-Duplicate") == "", nil
	case http.StatusConflict:
		return false, ErrStaleRound
	default:
		return false, fmt.Errorf("fldist: push: %s: %s", resp.Status, errorBody(resp.Body))
	}
}

// ErrStaleRound signals that the server moved on before this client's
// update arrived (on a buffered server: moved past the staleness window);
// the client should Pull and retrain. Match it with errors.Is — callers and
// intermediaries are free to wrap it.
var ErrStaleRound = errors.New("fldist: update for a stale round")

// RunRounds participates in n federated rounds: pull, train, push, with one
// loop for both server modes. A round is done once the server answers the
// push with 200 — counted, or a duplicate of a copy of this same push that
// it already counted, as when a re-send follows a lost response. The client
// then waits for the round to move past the pushed round before pulling
// again: a push from the same base would only be dropped as a duplicate, so
// training on it would be wasted work. Against a synchronous server that
// wait is the round barrier; against a buffered one (WithBufferedAggregation)
// it returns at its first /round probe whenever a commit has landed since,
// so pull → train → push pipelines with no barrier and a slow client's push
// still counts inside the staleness window. A stale push (HTTP 409) re-pulls
// and retrains at once; each such retrain is tallied in StaleRetrains. A
// server that cannot answer — restarting, or busy — is waited out (see
// send), so a fleet outlasts a server restart — and re-sends a push the
// restart lost (awaitRoundAfter).
//
// Canceling ctx stops between steps and aborts in-flight requests.
func (c *Client) RunRounds(ctx context.Context, n int, lr float64) error {
	pushed := -1 // round of the last accepted push not yet waited out
	for done := 0; done < n; {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("fldist: client %d stopped after %d rounds: %w", c.ID, done, err)
		}
		if pushed >= 0 {
			if err := c.awaitRoundAfter(ctx, pushed); errors.Is(err, ErrStaleRound) {
				done-- // a restarted server refused the re-send of a push it lost
				c.StaleRetrains++
			} else if err != nil {
				return err
			}
			pushed = -1
		}
		round, err := c.Pull(ctx)
		if err != nil {
			return err
		}
		c.trainPass(lr)
		_, err = c.Push(ctx, round)
		switch {
		case err == nil:
			done++
			pushed = round
		case errors.Is(err, ErrStaleRound):
			c.StaleRetrains++
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

// round fetches the server's current round number without transferring the
// model blob, and the answering instance's ID (serverHeader).
func (c *Client) round(ctx context.Context) (int, string, error) {
	resp, err := c.send(ctx, http.MethodGet, "/round", "", nil)
	if err != nil {
		return 0, "", fmt.Errorf("fldist: round: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, "", fmt.Errorf("fldist: round: %s: %s", resp.Status, errorBody(resp.Body))
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxRoundBody))
	if err != nil {
		return 0, "", fmt.Errorf("fldist: round: %w", err)
	}
	if len(body) == maxRoundBody {
		// No decimal round comes near the cap: whatever fills it is garbage,
		// and the rest of it stays unread.
		return 0, "", fmt.Errorf("fldist: round: body of %d bytes or more is not a round number", maxRoundBody)
	}
	// strconv.Atoi over the trimmed body, not fmt.Sscanf: Sscanf("%d") stops
	// at the first non-digit and would silently accept a corrupted body like
	// "3 oops" as round 3. Anything but a bare decimal is a protocol error.
	round, err := strconv.Atoi(string(bytes.TrimSpace(body)))
	if err != nil {
		return 0, "", fmt.Errorf("fldist: round: malformed body %q: %w", body, err)
	}
	if round < 0 {
		return 0, "", fmt.Errorf("fldist: round: negative round %d", round)
	}
	return round, resp.Header.Get(serverHeader), nil
}

// awaitRoundAfter polls the server's round counter (not the full model)
// until it exceeds round, with *jittered* exponential backoff between polls.
// The jitter matters at fleet scale: a synchronous round releases every
// client at the same instant, so a fixed backoff schedule keeps the whole
// fleet polling /round in lockstep — a thundering herd that shows up clearly
// at 64 concurrent clients. Drawing each sleep uniformly from [backoff/2,
// backoff) decorrelates the fleet while keeping the same mean. A new server
// instance answering (serverHeader) restarted and may have lost the push: it
// is re-sent once per instance; a 200 resumes the wait, a 409 returns
// ErrStaleRound. It returns nil once the aggregation that includes this
// client's update has completed, ctx's error on cancellation.
func (c *Client) awaitRoundAfter(ctx context.Context, round int) error {
	backoff := 2 * time.Millisecond
	const maxBackoff = 100 * time.Millisecond
	for {
		cur, server, err := c.round(ctx)
		if err != nil {
			return err
		}
		if cur > round {
			return nil
		}
		if server != c.pushServer {
			if _, err := c.post(ctx, c.pushCodec, c.pushBody); err != nil {
				return err
			}
			continue
		}
		if !sleepCtx(ctx, jitterDur(backoff)) {
			return fmt.Errorf("fldist: client %d canceled waiting for round %d: %w",
				c.ID, round+1, ctx.Err())
		}
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// send is the client's one request path and its one fault policy: every
// GET /model, POST /update and GET /round — a fleet client's and an edge's
// upstream ones alike — goes through it. While the peer cannot answer yet it
// re-sends the identical request under retryBackoff: no response at all
// (dial failure, reset, client timeout), a 502, 503 or 504, or a 409 carrying
// the retry marker (a commit still publishing, a full edge buffer). Every
// other answer is a verdict and is returned at once for the caller to map
// and close. When ctx ends it returns ctx's error. A server restart therefore
// costs a waiting client time, not its run, and re-sending a push is safe:
// the server counts one copy per (client, round) and answers the rest as
// duplicates.
func (c *Client) send(ctx context.Context, method, path, codec string, body []byte) (*http.Response, error) {
	var b retryBackoff
	for {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", contentTypeDelta)
		}
		if codec != "" {
			req.Header.Set(codecHeader, codec)
		}
		resp, err := c.HTTP.Do(req)
		if err == nil {
			switch resp.StatusCode {
			case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				// The peer cannot answer yet: re-send below.
			case http.StatusConflict:
				if resp.Header.Get(retryHeader) == "" {
					return resp, nil // the staleness verdict
				}
			default:
				return resp, nil
			}
			// Read what the cap allows so the connection can carry the re-send.
			errorBody(resp.Body)
			resp.Body.Close()
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c.retries.Add(1)
		if !b.wait(ctx) {
			return nil, ctx.Err()
		}
	}
}

// retryBackoff paces send's re-sends: jittered waits (jitterDur) from 10 ms,
// doubling until they pass 2 s. The zero value is ready.
type retryBackoff struct{ d time.Duration }

// wait sleeps the next interval, reporting false if ctx ended first.
func (b *retryBackoff) wait(ctx context.Context) bool {
	if b.d == 0 {
		b.d = 10 * time.Millisecond
	}
	ok := sleepCtx(ctx, jitterDur(b.d))
	if b.d < 2*time.Second {
		b.d *= 2
	}
	return ok
}

// sleepCtx sleeps for d, reporting false if ctx was canceled first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// jitterDur draws a duration uniformly from [d/2, d) off the global RNG —
// shared by the client's round polling and every retryBackoff, so every
// backoff in the tree is decorrelated the same way. It
// deliberately does NOT use Client.Rng: the number of polls depends on
// wall-clock timing, so consuming the training RNG here would make a seeded
// client's batch order — and therefore its trained parameters —
// timing-dependent. The global source is thread-safe and only influences
// sleep lengths, never results.
func jitterDur(d time.Duration) time.Duration {
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	//lint:ignore determinism retry jitter decorrelates clients; it paces requests and never reaches model state
	return time.Duration(half + rand.Int63n(half))
}
