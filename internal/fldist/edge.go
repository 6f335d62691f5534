package fldist

// Hierarchical multi-tier aggregation. An Edge stands between a cohort of
// clients and an upstream parameter server (the root, or another edge —
// topologies nest arbitrarily):
//
//   - To its cohort it IS a parameter server. The embedded buffered Server
//     admits cohort pushes with the very same shard fold, staleness window,
//     dedup horizon and 1/(1+s) down-weighting as the root — edge.go adds no
//     second aggregation algorithm.
//   - To its upstream it is an ordinary client. Each flush pre-folds the
//     buffered cohort updates into ONE combined update — weight = the sum of
//     the cohort's effective weights, base round = the upstream round the
//     edge last adopted — and pushes it as a plain raw wire update
//     (docs/WIRE.md is unchanged; the root cannot tell an edge from a big
//     client, and its staleness down-weighting of an old base round applies
//     to tier deltas for free).
//
// The pre-fold IS the embedded server's buffered commit, run in manual mode:
// cohort admissions never auto-commit; the edge's single flusher goroutine
// calls (*Server).commitNow when its flush policy fires (K updates buffered,
// or the oldest buffered update reaching age T), pushes the committed model
// upstream, waits for the upstream round that includes it, and adopts the
// freshly pulled upstream model as the next base. One inner commit per
// upstream push is the invariant that keeps the algebra exact: an inner
// commit produces m' = b + Σwᵢ(xᵢ−bᵢ)/W over the batch (W = Σwᵢ), so the
// upstream's own fold of the tier delta, W·(m'−b), reproduces the cohort sum
// Σwᵢ(xᵢ−bᵢ) — the identical contribution the flat fleet would have made,
// which is why a 2-tier tree commits the same model as the flat fleet over
// the same admitted multiset (see docs/ARCHITECTURE.md "Hierarchical
// aggregation" for the exactness fine print, and TestTwoTierBitIdentical*).
//
// The edge also acts as a pull-through model cache: cohort pulls are served
// from the adopted base (plus any local commits) without touching the root,
// so N clients behind an edge cost the root one pull per flush cycle instead
// of N.

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// edgeConfig carries NewEdge's optional settings.
type edgeConfig struct {
	name     string
	clientID int
	flushK   int
	flushAge time.Duration
	window   int
	shards   int
	walDir   string
}

// EdgeOption configures NewEdge.
type EdgeOption func(*edgeConfig)

// WithEdgeName names the edge's cohort; the name appears in the stats
// upstream section and is the tenant name a Registry mounts the edge under.
func WithEdgeName(name string) EdgeOption {
	return func(c *edgeConfig) { c.name = name }
}

// WithEdgeClientID fixes the base of the EdgeIDSpan-sized block of client
// IDs the edge pushes upstream under (see EdgeIDSpan). Every edge (and
// direct client) sharing an upstream needs a disjoint block — the upstream's
// per-(round, client) dedup would silently drop a colliding edge's flush
// otherwise. By default edges draw EdgeIDSpan-strided blocks from 1<<20 up,
// clear of small hand-assigned client IDs — but only within one process;
// separate edge processes sharing an upstream must be given explicit
// disjoint blocks (cmd/fldist -edge-id randomizes its default for this
// reason).
func WithEdgeClientID(id int) EdgeOption {
	return func(c *edgeConfig) { c.clientID = id }
}

// WithEdgeFlush sets the flush policy: the edge pushes its combined cohort
// delta upstream once k updates have buffered, or once the oldest buffered
// update is age old — whichever comes first. age 0 disables the age trigger
// (flushes happen on depth k and drain only). Defaults: k 8, age 500ms.
func WithEdgeFlush(k int, age time.Duration) EdgeOption {
	return func(c *edgeConfig) { c.flushK = k; c.flushAge = age }
}

// WithEdgeWindow sets the staleness window (in the edge's local commit
// rounds) for cohort admissions, exactly as WithBufferedAggregation's
// maxStaleness does for a root. Default 8.
func WithEdgeWindow(maxStaleness int) EdgeOption {
	return func(c *edgeConfig) { c.window = maxStaleness }
}

// WithEdgeShards sets the embedded server's parameter shard count (see
// WithShards). The edge's pre-fold is bit-identical at any shard count.
func WithEdgeShards(n int) EdgeOption {
	return func(c *edgeConfig) { c.shards = n }
}

// WithEdgeWAL makes the edge's parked upstream batch crash-safe: every
// committed-but-unacknowledged batch is persisted (whole, via atomic replace)
// in dir's single-slot edge.wal before the push, and a restarted edge
// re-pushes it with its original pushID before doing anything else — the
// upstream's (round, pushID) dedup turns the replay into a duplicate 200 if
// the first attempt had in fact landed, so a crash on either side of the
// acknowledgement costs nothing and double-counts nothing. Only the parked
// batch is durable: cohort updates still buffering toward the next commit die
// with the process (their clients re-push, exactly as they would against a
// restarted root without a WAL). The slot also restores the batch ID cursor,
// keeping later batches' dedup identities on the same EdgeIDSpan cycle.
func WithEdgeWAL(dir string) EdgeOption {
	return func(c *edgeConfig) { c.walDir = dir }
}

// EdgeIDSpan is the block of upstream client IDs each edge owns: an edge
// configured with client ID id pushes under IDs in [id, id+EdgeIDSpan).
// Successive committed batches cycle through the block, so two *different*
// batches pushed from the same upstream base round never share the
// upstream's per-(round, client) dedup key — without this, the second of two
// drain pushes from one adopted base (or the first flush after an
// interrupted resync) would be answered with a duplicate-200 and a whole
// cohort batch silently discarded. Retries of the *same* batch keep their
// ID, so upstream dedup still makes interrupted pushes idempotent. Anything
// assigning edge IDs by hand must space them by at least this span.
const EdgeIDSpan = 64

// edgeAutoID hands out default upstream client ID blocks, EdgeIDSpan apart,
// starting high so they never collide with hand-assigned fleet client IDs.
var edgeAutoID atomic.Int64

func init() { edgeAutoID.Store(1 << 20) }

// unpushedBatch is a committed cohort batch whose upstream push has not
// succeeded yet (the flush was interrupted by context cancellation). Drain
// completes it before committing anything further — one inner commit per
// upstream push is the exactness invariant. pushID is the batch's dedup
// identity within the edge's EdgeIDSpan block, fixed at commit time so
// retries and rebases of this batch stay idempotent upstream while the next
// batch pushes under a fresh key.
// The payload and base are frozen at park time (parkBatchLocked), not at push
// time: what the WAL holds is byte-for-byte what the wire will carry, so a
// restarted edge re-pushes exactly what the crashed one would have. snap is
// nil for a batch recovered from the edge WAL — the inner model it came from
// died with the previous process.
type unpushedBatch struct {
	snap   *snapshot
	batch  commitInfo
	pushID int

	payloadP  []float64
	payloadB  []float64
	baseRound int
	baseP     []float64
	baseB     []float64
}

// Edge is an edge aggregator: a buffered parameter server for its cohort and
// a client of its upstream. Build with NewEdge, call Start (or let Serve do
// it), and point cohort clients — plain fldist.Clients, raw or compressed —
// at its Handler. See the package comment at the top of this file.
type Edge struct {
	upstream string
	name     string
	clientID int

	flushK   int
	flushAge time.Duration
	window   int
	shards   int
	walDir   string

	inner        *Server
	innerHandler http.Handler

	// flushMu serializes every upstream interaction (flusher flushes and
	// Drain) and guards the base/last-push bookkeeping below. The cohort
	// admission path never takes it.
	flushMu sync.Mutex
	// baseRound/baseParams/baseBN are the currently adopted upstream state:
	// the base the next flush's combined delta is expressed against.
	baseRound  int
	baseParams []float64
	baseBN     []float64
	// lastPushedP/lastPushedB are the inner model as of the last successful
	// upstream push; cleanBase marks that no push has happened since the last
	// adopt (the common case, where the push payload is the inner model
	// verbatim). When a drain pushes twice from one base, the second payload
	// is re-expressed as base + (model − lastPushed) so the first batch is
	// not double-counted upstream.
	lastPushedP []float64
	lastPushedB []float64
	cleanBase   bool
	unpushed    *unpushedBatch
	// pushSeq counts committed batches; each batch's upstream dedup identity
	// is clientID + pushSeq%EdgeIDSpan (see EdgeIDSpan).
	pushSeq int

	// baseRoundA mirrors baseRound for the lock-free Stats read.
	baseRoundA atomic.Int64

	started atomic.Bool
	// done closes when the flusher goroutine exits (its context canceled);
	// Serve waits on it before draining so flusher and drain never overlap a
	// push.
	done chan struct{}

	upPushes     atomic.Int64
	upRetries    atomic.Int64
	upRebased    atomic.Int64
	flushByK     atomic.Int64
	flushByAge   atomic.Int64
	flushByDrain atomic.Int64
	cohortPulls  atomic.Int64
}

// NewEdge creates an edge aggregator for the given upstream base URL (e.g.
// "http://root:8080"). Like NewServer it panics on nonsensical
// configuration; it does not touch the network — the first upstream pull
// happens in Start.
func NewEdge(upstream string, opts ...EdgeOption) *Edge {
	if upstream == "" {
		panic("fldist: edge needs an upstream URL")
	}
	cfg := edgeConfig{
		clientID: int(edgeAutoID.Add(EdgeIDSpan) - EdgeIDSpan),
		flushK:   8,
		flushAge: 500 * time.Millisecond,
		window:   8,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.flushK < 1 {
		panic("fldist: edge flush threshold must be ≥ 1")
	}
	if cfg.flushAge < 0 {
		panic("fldist: edge flush age must be ≥ 0")
	}
	if cfg.window < 0 || cfg.window > maxStalenessLimit {
		panic(fmt.Sprintf("fldist: edge staleness window %d outside [0,%d]", cfg.window, maxStalenessLimit))
	}
	return &Edge{
		upstream: upstream,
		name:     cfg.name,
		clientID: cfg.clientID,
		flushK:   cfg.flushK,
		flushAge: cfg.flushAge,
		window:   cfg.window,
		shards:   cfg.shards,
		walDir:   cfg.walDir,
		done:     make(chan struct{}),
	}
}

// Name returns the cohort name ("" when unnamed).
func (e *Edge) Name() string { return e.name }

// ClientID returns the client ID the edge pushes upstream under.
func (e *Edge) ClientID() int { return e.clientID }

// Start pulls the initial model from the upstream (retrying transport
// failures with jittered backoff until ctx is canceled), seeds the embedded
// cohort server with it, and launches the flusher goroutine. The flusher
// stops when ctx is canceled; Start must be called at most once.
func (e *Edge) Start(ctx context.Context) error {
	if e.started.Swap(true) {
		return errors.New("fldist: edge already started")
	}
	if e.walDir != "" {
		if err := e.recoverParkedBatch(ctx); err != nil {
			e.started.Store(false)
			return err
		}
	}
	blob, err := e.pullUpstreamRetry(ctx)
	if err != nil {
		e.started.Store(false)
		return fmt.Errorf("fldist: edge initial pull: %w", err)
	}
	inner := NewServer(blob.Params, blob.BN, 1,
		WithShards(e.shards), WithBufferedAggregation(e.flushK, e.window))
	inner.manual = true
	inner.flushSignal = make(chan struct{}, 1)
	// Bound the cohort buffer: in manual mode nothing on the admission path
	// drains it, so while the flusher is wedged (an upstream outage's retry
	// loop, a stalled resync) admissions would otherwise retain model-sized
	// buffers without limit. Beyond a few flushes' worth, cohort pushes get
	// the retryable buffer-full verdict until the flusher catches up.
	inner.manualCap = 4 * e.flushK
	e.inner = inner
	e.innerHandler = inner.Handler()
	e.setBase(blob)
	go e.flusher(ctx)
	return nil
}

// recoverParkedBatch completes the push a previous run of this edge parked in
// the WAL but never got acknowledged for. It runs before the initial pull and
// before the inner server exists: the parked payload was frozen at park time,
// so pushing it needs no local model state — only the stored base (for a
// staleness rebase) and the stored pushID (for upstream dedup). The batch ID
// cursor is restored from the slot so batches committed after the restart
// keep drawing fresh dedup identities.
func (e *Edge) recoverParkedBatch(ctx context.Context) error {
	b, ok, err := readEdgeWAL(e.walDir)
	if err != nil {
		return fmt.Errorf("fldist: edge wal recovery: %w", err)
	}
	if !ok {
		return nil
	}
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	e.pushSeq = b.pushSeq
	e.unpushed = &unpushedBatch{
		batch:     commitInfo{updates: b.updates, weight: b.weight},
		pushID:    b.pushID,
		payloadP:  b.payloadP,
		payloadB:  b.payloadB,
		baseRound: b.baseRnd,
		baseP:     b.baseP,
		baseB:     b.baseBN,
	}
	if err := e.pushBatchLocked(ctx, false); err != nil {
		return fmt.Errorf("fldist: edge wal recovery: %w", err)
	}
	return nil
}

// setBase records blob as the adopted upstream state. Caller holds flushMu
// or is the still-single-threaded Start.
func (e *Edge) setBase(blob *ModelBlob) {
	e.baseRound = blob.Round
	e.baseParams = blob.Params
	e.baseBN = blob.BN
	e.lastPushedP = blob.Params
	e.lastPushedB = blob.BN
	e.cleanBase = true
	e.baseRoundA.Store(int64(blob.Round))
}

// Handler returns the edge's HTTP routes: the embedded cohort server's
// /model, /round and /update verbatim (plus a pull-cache hit counter), with
// /stats replaced by the edge's own stats carrying the upstream section.
// Start must have succeeded first.
func (e *Edge) Handler() http.Handler {
	if e.inner == nil {
		panic("fldist: Edge.Handler before Start")
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", e.handleStats)
	mux.Handle("/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/model" {
			e.cohortPulls.Add(1)
		}
		e.innerHandler.ServeHTTP(w, r)
	}))
	return mux
}

func (e *Edge) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(e.Stats())
}

// Stats returns the embedded cohort server's stats with the Upstream tier
// section filled in. Like (*Server).Stats it reads only atomics — it never
// blocks cohort admission or an in-flight flush.
func (e *Edge) Stats() Stats {
	st := e.inner.Stats()
	st.Upstream = &UpstreamStats{
		URL:         e.upstream,
		Cohort:      e.name,
		BaseRound:   int(e.baseRoundA.Load()),
		Pushes:      e.upPushes.Load(),
		Retries:     e.upRetries.Load(),
		Rebased:     e.upRebased.Load(),
		FlushK:      e.flushByK.Load(),
		FlushAge:    e.flushByAge.Load(),
		FlushDrain:  e.flushByDrain.Load(),
		CohortPulls: e.cohortPulls.Load(),
		Buffered:    e.inner.bufferedNow.Load(),
	}
	return st
}

// flusher is the edge's only committing goroutine: it watches the admission
// signal, applies the K/age flush policy, and runs each flush to completion
// (commit → push upstream → adopt the new upstream model) before looking at
// the buffer again. Single-threaded flushing is what guarantees one inner
// commit per upstream push.
func (e *Edge) flusher(ctx context.Context) {
	defer close(e.done)
	var ageTimer *time.Timer
	var ageC <-chan time.Time
	stopAge := func() {
		if ageTimer != nil {
			ageTimer.Stop()
			ageTimer = nil
			ageC = nil
		}
	}
	defer stopAge()
	// armAge points the age trigger at the *admission time* of the oldest
	// buffered update (recorded by the admission path, not by this
	// goroutine), reporting true when that deadline has already passed — so
	// an update that sat buffered while the flusher was inside a long flush
	// (upstream retries) is pushed the moment the flusher frees up, instead
	// of waiting a whole fresh flushAge. No-op when the trigger is disabled,
	// already armed, or the buffer is empty.
	armAge := func() (due bool) {
		if e.flushAge <= 0 || ageC != nil {
			return false
		}
		oldest := e.inner.oldestAdmit.Load()
		if oldest == 0 {
			return false
		}
		//lint:ignore determinism flush-age pacing only; which updates flush is decided by count and round, their bytes by content
		remaining := e.flushAge - time.Since(time.Unix(0, oldest))
		if remaining <= 0 {
			return true
		}
		ageTimer = time.NewTimer(remaining)
		ageC = ageTimer.C
		return false
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-e.inner.flushSignal:
			if int(e.inner.bufferedNow.Load()) >= e.flushK {
				e.flush(ctx, &e.flushByK)
				stopAge()
			} else if armAge() {
				e.flush(ctx, &e.flushByAge)
			}
		case <-ageC:
			ageTimer = nil
			ageC = nil
			if e.inner.bufferedNow.Load() == 0 {
				continue
			}
			// The buffer the timer was armed for may have flushed and
			// refilled since; re-arm against the current oldest admission if
			// its deadline is still in the future.
			if armAge() {
				e.flush(ctx, &e.flushByAge)
			}
		}
	}
}

// flush runs one complete flush cycle. On context cancellation mid-push the
// committed batch is parked for Drain to complete.
func (e *Edge) flush(ctx context.Context, reason *atomic.Int64) {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	if e.unpushed == nil {
		batch, ok := e.inner.commitNow()
		if !ok {
			return
		}
		reason.Add(1)
		e.parkBatchLocked(batch)
	}
	if err := e.pushBatchLocked(ctx, true); err != nil {
		return // ctx canceled; e.unpushed survives for Drain
	}
}

// nextPushIDLocked draws the upstream dedup identity for a freshly committed
// batch: the edge's client ID plus a per-batch offset cycling through the
// edge's EdgeIDSpan-sized ID block. Distinct batches pushed from the same
// base round (drain's second push; a flush after an interrupted resync) thus
// never collide in the upstream's per-(round, client) dedup, while retries
// of one batch reuse its identity and stay idempotent. Caller holds flushMu.
func (e *Edge) nextPushIDLocked() int {
	id := e.clientID + e.pushSeq%EdgeIDSpan
	e.pushSeq++
	return id
}

// parkBatchLocked freezes a freshly committed batch into the unpushed slot:
// it draws the batch's upstream dedup identity, computes the exact payload
// the push will carry — the inner model verbatim on the first push since the
// last adopt, otherwise re-expressed as base + (model − lastPushed) so the
// previous push from this base is not double-counted upstream — and, when the
// edge has a WAL dir, persists the parked batch so a restarted edge re-pushes
// it under the same identity. Caller holds flushMu.
func (e *Edge) parkBatchLocked(batch commitInfo) {
	snap := e.inner.model.Load()
	params, bn := snap.params, snap.bn
	if !e.cleanBase {
		params = rebaseVec(e.baseParams, snap.params, e.lastPushedP)
		bn = rebaseVec(e.baseBN, snap.bn, e.lastPushedB)
	}
	e.unpushed = &unpushedBatch{
		snap:      snap,
		batch:     batch,
		pushID:    e.nextPushIDLocked(),
		payloadP:  params,
		payloadB:  bn,
		baseRound: e.baseRound,
		baseP:     e.baseParams,
		baseB:     e.baseBN,
	}
	e.persistUnpushedLocked()
}

// persistUnpushedLocked writes the parked batch to the edge WAL slot. A write
// failure downgrades durability, not correctness: the push proceeds, and only
// a crash before its acknowledgement would lose the batch — so it warns and
// carries on. Caller holds flushMu; no-op without a WAL dir.
func (e *Edge) persistUnpushedLocked() {
	if e.walDir == "" || e.unpushed == nil {
		return
	}
	u := e.unpushed
	err := writeEdgeWAL(e.walDir, walEdgeBatch{
		pushID:   u.pushID,
		pushSeq:  e.pushSeq,
		baseRnd:  u.baseRound,
		weight:   u.batch.weight,
		updates:  u.batch.updates,
		payloadP: u.payloadP,
		payloadB: u.payloadB,
		baseP:    u.baseP,
		baseBN:   u.baseB,
	})
	if err != nil {
		log.Printf("fldist: edge: parking batch durably failed (a crash before the push lands would lose it): %v", err)
	}
}

// Drain flushes everything still buffered upstream: first any batch whose
// push a canceled context interrupted, then a final commit of the live
// buffer. Serve calls it on graceful shutdown (with a fresh context — the
// serve context is already canceled by then); it is also safe to call
// directly on an edge mounted on an external mux. The returned error is
// non-nil only when ctx expired before the upstream acknowledged.
func (e *Edge) Drain(ctx context.Context) error {
	if e.inner == nil {
		return nil
	}
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	if e.unpushed != nil {
		if err := e.pushBatchLocked(ctx, false); err != nil {
			return fmt.Errorf("fldist: edge drain: %w", err)
		}
	}
	batch, ok := e.inner.commitNow()
	if !ok {
		return nil
	}
	e.flushByDrain.Add(1)
	e.parkBatchLocked(batch)
	if err := e.pushBatchLocked(ctx, false); err != nil {
		return fmt.Errorf("fldist: edge drain: %w", err)
	}
	return nil
}

// pushBatchLocked pushes e.unpushed upstream, retrying transport failures
// with jittered exponential backoff and rebasing on a staleness 409, then —
// when resync is set — waits for the upstream round that includes the push
// and adopts the fresh upstream model as the next base. Caller holds
// flushMu. It returns nil exactly when the push was acknowledged; e.unpushed
// is cleared then and kept otherwise.
func (e *Edge) pushBatchLocked(ctx context.Context, resync bool) error {
	u := e.unpushed
	backoff := 10 * time.Millisecond
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		err := e.pushUpstream(ctx, Update{
			ClientID: u.pushID,
			Round:    u.baseRound,
			Weight:   u.batch.weight,
			Params:   u.payloadP,
			BN:       u.payloadB,
		})
		switch {
		case err == nil:
			e.upPushes.Add(1)
			if u.snap != nil {
				// A recovered batch (nil snap) has no inner model to record:
				// Start adopts a fresh upstream base right after this push.
				e.lastPushedP = u.snap.params
				e.lastPushedB = u.snap.bn
				e.cleanBase = false
			}
			e.unpushed = nil
			if e.walDir != "" {
				if cerr := clearEdgeWAL(e.walDir); cerr != nil {
					log.Printf("fldist: edge: clearing pushed batch: %v", cerr)
				}
			}
			if resync {
				e.resyncLocked(ctx, u.baseRound)
			}
			return nil
		case errors.Is(err, ErrStaleRound):
			// The upstream aggregated past our base's staleness window while
			// the batch buffered. The cohort's training is not thrown away:
			// pull the current upstream model and re-express the combined
			// delta against it — the rebased payload carries the identical
			// cohort delta at a fresh (possibly zero) staleness. The parked
			// slot (and its WAL record) is rewritten before the re-push so
			// durable state always matches what the wire will carry.
			blob, perr := e.pullUpstreamRetry(ctx)
			if perr != nil {
				return perr
			}
			if len(blob.Params) != len(u.payloadP) || len(blob.BN) != len(u.payloadB) {
				return fmt.Errorf("fldist: edge push: upstream model shape changed")
			}
			u.payloadP = rebaseVec(blob.Params, u.payloadP, u.baseP)
			u.payloadB = rebaseVec(blob.BN, u.payloadB, u.baseB)
			u.baseRound = blob.Round
			u.baseP, u.baseB = blob.Params, blob.BN
			e.persistUnpushedLocked()
			e.upRebased.Add(1)
		default:
			// Transport failure or upstream commit stall: the upstream is
			// unreachable or busy. Retry forever (bounded only by ctx) —
			// meanwhile the embedded server keeps admitting cohort pushes
			// and serving cached pulls; nothing downstream notices.
			e.upRetries.Add(1)
			if !sleepCtx(ctx, jitterDur(backoff)) {
				return ctx.Err()
			}
			if backoff < 2*time.Second {
				backoff *= 2
			}
		}
	}
}

// rebaseVec re-expresses a model vector against a new base:
// newBase + (vec − oldBase), element-wise.
func rebaseVec(newBase, vec, oldBase []float64) []float64 {
	out := make([]float64, len(vec))
	for i := range out {
		out[i] = newBase[i] + (vec[i] - oldBase[i])
	}
	return out
}

// resyncLocked waits until the upstream round exceeds pushedRound (the
// commit that folds our flush in), pulls the resulting model, and adopts it:
// the embedded server installs it as a new local round (retaining the old
// snapshot for the staleness window, leaving buffered admissions untouched)
// and the edge records it as the base of the next flush. Transport failures
// retry with the same jittered backoff as the client fleet's round polling.
// Caller holds flushMu.
func (e *Edge) resyncLocked(ctx context.Context, pushedRound int) {
	probe := &Client{ID: e.clientID, BaseURL: e.upstream, HTTP: http.DefaultClient}
	for {
		err := probe.awaitRoundAfter(ctx, pushedRound)
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			return
		}
		e.upRetries.Add(1)
		if !sleepCtx(ctx, jitterDur(50*time.Millisecond)) {
			return
		}
	}
	blob, err := e.pullUpstreamRetry(ctx)
	if err != nil {
		return
	}
	e.inner.adopt(blob.Params, blob.BN)
	e.setBase(blob)
}

// pullUpstreamRetry pulls the upstream model, retrying transport failures
// with jittered exponential backoff until ctx is canceled.
func (e *Edge) pullUpstreamRetry(ctx context.Context) (*ModelBlob, error) {
	backoff := 10 * time.Millisecond
	for {
		blob, err := e.pullUpstream(ctx)
		if err == nil {
			return blob, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		e.upRetries.Add(1)
		if !sleepCtx(ctx, jitterDur(backoff)) {
			return nil, ctx.Err()
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// pullUpstream fetches the upstream model over the raw protocol. The edge
// always pulls raw: its base must be the upstream's exact float64 state for
// the tier algebra to be exact; cohort links are where compression pays.
func (e *Edge) pullUpstream(ctx context.Context) (*ModelBlob, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.upstream+"/model", nil)
	if err != nil {
		return nil, fmt.Errorf("fldist: edge pull: %w", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fldist: edge pull: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("fldist: edge pull: %s: %s", resp.Status, body)
	}
	var blob ModelBlob
	if err := gob.NewDecoder(resp.Body).Decode(&blob); err != nil {
		return nil, fmt.Errorf("fldist: edge pull: decoding model: %w", err)
	}
	if e.inner != nil {
		snap := e.inner.model.Load()
		if len(blob.Params) != len(snap.params) || len(blob.BN) != len(snap.bn) {
			return nil, fmt.Errorf("fldist: edge pull: upstream model shape changed")
		}
	}
	return &blob, nil
}

// pushUpstream POSTs one raw update and maps the verdict: nil on 200 (a
// duplicate 200 means an earlier retry of this same push already counted —
// equally done), ErrStaleRound on a staleness 409, and a plain error on a
// retry-marked 409 (upstream commit stall) or any transport failure, both of
// which the caller retries with the identical body.
func (e *Edge) pushUpstream(ctx context.Context, u Update) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(u); err != nil {
		return fmt.Errorf("fldist: edge push: encoding: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.upstream+"/update",
		bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("fldist: edge push: %w", err)
	}
	req.Header.Set("Content-Type", contentTypeGob)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("fldist: edge push: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusConflict:
		if resp.Header.Get(retryHeader) != "" {
			return fmt.Errorf("fldist: edge push: upstream commit in flight")
		}
		return ErrStaleRound
	default:
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("fldist: edge push: %s: %s", resp.Status, body)
	}
}

// ListenAndServe runs the edge on addr until ctx is canceled, then shuts the
// cohort listener down gracefully and drains the remaining buffer upstream.
func (e *Edge) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("fldist: listen: %w", err)
	}
	return e.Serve(ctx, ln)
}

// Serve runs the edge on an existing listener until ctx is canceled
// (starting it first if Start has not run), then shuts down gracefully:
// in-flight cohort pushes finish and land in the buffer, the flusher stops,
// and a final drain pushes everything still buffered upstream under a fresh
// timeout — SIGTERM never strands admitted cohort work on the edge.
func (e *Edge) Serve(ctx context.Context, ln net.Listener) error {
	if e.inner == nil {
		if err := e.Start(ctx); err != nil {
			ln.Close()
			return err
		}
	}
	hs := NewHTTPServer(e.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			return fmt.Errorf("fldist: edge shutdown: %w", err)
		}
		<-errc // drain the ErrServerClosed from Serve
		<-e.done
		drainCtx, cancelDrain := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancelDrain()
		return e.Drain(drainCtx)
	case err := <-errc:
		return fmt.Errorf("fldist: edge serve: %w", err)
	}
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

// ---- Server tier hooks -----------------------------------------------------
//
// The methods below are what manual (edge-driven) commit mode adds to the
// buffered Server. They are deliberately unexported: tiers compose Servers,
// they do not change what a Server is.

// commitInfo describes one edge-driven commit: the local round it produced,
// how many cohort updates it folded, and their summed effective weight — the
// weight the combined tier delta carries upstream.
type commitInfo struct {
	round   int
	updates int
	weight  float64
}

// signalFlush wakes the flusher without blocking the admission path; the
// capacity-1 channel coalesces bursts.
func (s *Server) signalFlush() {
	select {
	case s.flushSignal <- struct{}{}:
	default:
	}
}

// commitNow runs one edge-driven buffer commit: it freezes admission
// (registrations racing the fold wait it out exactly as they wait out an
// auto-mode commit), folds whatever the buffer holds — all of it, not just
// K — and reports the folded batch. ok=false (nothing committed) on an empty
// buffer or a commit already in flight. Manual mode only.
func (s *Server) commitNow() (commitInfo, bool) {
	s.pendMu.Lock()
	if s.pendingN == 0 || s.committing {
		s.pendMu.Unlock()
		return commitInfo{}, false
	}
	s.committing = true
	info := commitInfo{
		round:   s.model.Load().round + 1,
		updates: s.pendingN,
		weight:  s.pendingW,
	}
	s.pendMu.Unlock()
	s.commitBuffer() // clears committing when it resets the registry
	return info, true
}

// adopt installs an externally supplied model — the tier's freshly pulled
// upstream state — as the new current snapshot, advancing the local round by
// one and retaining the replaced round (snapshot, served codec cache,
// downlink feedback chain) for the staleness window exactly like a commit.
// The pending buffer is NOT touched: contributions admitted while the flush
// was in flight keep their retained bases and fold onto the adopted model at
// the next commit — FedBuff's apply-to-latest semantics, one tier up.
// Buffered mode only; the edge's flusher is the only caller.
func (s *Server) adopt(params, bn []float64) int {
	s.serveMu.Lock()
	old := s.model.Load()
	next := &snapshot{
		round:  old.round + 1,
		params: append([]float64(nil), params...),
		bn:     append([]float64(nil), bn...),
	}
	s.retireRoundLocked(old, next.round)

	s.pendMu.Lock()
	s.model.Store(next)
	for r := range s.admitted {
		if r < next.round-s.maxStale {
			delete(s.admitted, r)
		}
	}
	s.pendMu.Unlock()
	s.serveMu.Unlock()
	return next.round
}
