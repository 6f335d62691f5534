// Package fldist provides a real distributed transport for the federated
// training loop: an HTTP parameter server and a client that pulls the global
// model, trains locally (PGD adversarial training), and pushes weighted
// updates. Everything else in this repository simulates federation
// in-process for experimental control; this package is the deployment path a
// downstream user of the library would run on actual edge devices, with the
// same FedAvg/partial-average semantics.
//
// One wire protocol, negotiated per client (docs/WIRE.md): every body is an
// envelope of FPQ1 quant frames — FPM1 for pulls, FPU1 for pushes. A client
// that asks for nothing gets the frames in their exact raw form (float64
// values) and pushes its trained vector raw; a client that negotiates a codec
// pulls a chunk-quantized global model and pushes a quantized *delta* against
// that pulled base, carrying the quantization residual into its next round's
// delta (error feedback) so compression error does not accumulate in the
// global model. The server dequantizes, reconstructs base+delta, and feeds
// the result into the same admission path as raw pushes — a mixed fleet
// aggregates correctly.
//
// The server aggregates through one pending list (fold.go): the global
// model is a copy-on-write snapshot read lock-free by every handler, push
// bodies stream-decode chunk-by-chunk into pooled buffers with O(chunk)
// transient memory, and the only global critical section on the push path is
// a constant-size admission registry (one append, nothing proportional to
// the model). Stats are atomics, so a /stats poll never
// blocks in-flight aggregation. GET /stats exposes bytes-on-wire counters
// split raw vs compressed plus admit-latency percentiles.
//
// Aggregation runs in one of two modes. The synchronous default collects a
// fixed quorum for the current round and 409s anything else. Buffered mode
// (WithBufferedAggregation) is FedBuff-style bounded staleness: updates
// whose base round is at most maxStaleness rounds old are admitted with
// weight discounted by 1/(1+staleness), and the model commits every bufferK
// admitted updates — a straggler's training pass is never discarded while it
// stays inside the window, and fleet throughput is no longer gated by the
// slowest client. Both modes admit through one registry and commit through
// one function: the quorum is the buffer with window 0 and K = quorum, and
// commit's only branch is the fold kernel — fl's FedAvg fold for the quorum,
// its FedBuff delta fold for the buffer. The wire protocol is identical in
// both modes (the update envelope always carried its base round; see
// docs/WIRE.md).
//
// The package is marked deterministic: commits, WAL records, and served
// frames must be pure functions of the admitted updates so crash recovery
// and cross-node aggregation reconverge bit-for-bit. Wall-clock and jitter
// reads are confined to individually justified sites (fplint enforces this;
// see docs/ARCHITECTURE.md, "Static analysis").
//
//lint:deterministic
package fldist

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fedprophet/internal/quant"
)

// Server is a FedAvg parameter server with two aggregation modes:
//
//   - Synchronous (default): it collects updatesPerRound client updates for
//     the current round, aggregates them with data-size weighting, and
//     advances the round. Late or mismatched-round updates are rejected
//     with 409 so clients re-pull.
//   - Buffered (WithBufferedAggregation): FedBuff-style bounded staleness —
//     an update is admitted while its base round is at most maxStaleness
//     rounds old, down-weighted by 1/(1+staleness), and the model commits
//     whenever bufferK updates have buffered. No quorum barrier, no wasted
//     training pass inside the window.
//
// Both run one admission registry (register); the quorum is its window-0,
// K = updatesPerRound case.
//
// Lock hierarchy (see docs/ARCHITECTURE.md). The machine-readable
// declaration below is the single source of truth fplint's lockorder
// analyzer checks every acquisition against:
//
// model is an atomic copy-on-write snapshot — reads take no lock at all, and
// neither does a pull or push whose served variant of the current round is
// already built. A variant's build latch (servedEntry.mu) is held across its
// O(model) build. serveMu guards the retained-round window, the free residual
// list and the creation of a snapshot's variant slots — never O(model) work.
// pendMu guards only the small admission registry (dedup set + pending
// list); the model-sized decode/validate/reconstruct work of every push
// happens before it, concurrently across requests. All counters are atomics.
//
//lint:lockorder servedEntry.mu -> Server.serveMu -> Server.pendMu
type Server struct {
	id string // names this instance, new at every boot (serverHeader)

	// The admission policy. bufferK is the commit threshold and maxStale the
	// admission window in rounds: the synchronous quorum is bufferK =
	// quorum, maxStale = 0. async selects buffered mode
	// (WithBufferedAggregation) — its fold kernel, round retention and
	// admission log.
	async    bool
	bufferK  int
	maxStale int

	// Tier hooks (edge.go). manual switches buffered mode from auto-commit
	// (the handler filling the buffer runs the fold) to edge-driven commits:
	// admissions never trigger a commit themselves — the edge's flusher
	// calls commitNow when its flush policy fires and adopt after every
	// upstream resync. flushSignal, when non-nil, receives a (non-blocking)
	// token after every manual-mode admission so the flusher can re-check
	// its K threshold without polling. Both are set before the server starts
	// serving and never change.
	manual      bool
	flushSignal chan struct{}
	// manualCap bounds the pending list in manual mode, where nothing on the
	// admission path ever drains the buffer: with the tier's flusher wedged
	// (an upstream outage, a stalled resync), admissions would otherwise
	// retain model-sized update buffers without limit. At the cap, admission
	// answers the retryable buffer-full verdict until the flusher catches
	// up. Set alongside manual, before serving starts.
	manualCap int

	// model is the current immutable global state; round advance installs a
	// fresh snapshot. The swap happens under serveMu and pendMu, so
	// registrations see a consistent (round, pending) pair and baseAt finds
	// the retiring round either current or retained.
	model atomic.Pointer[snapshot]

	// pendMu guards the admission registry: pending, one contribution per
	// update buffered toward the next commit (its pooled buffer released when
	// the commit folds), and their summed effective weight. committing marks
	// an edge-driven commit in flight (manual mode only) — it blocks
	// admission exactly as a full buffer does in auto mode, and clears when
	// the fold publishes its snapshot. The commit's fold reads pending
	// outside pendMu, under that freeze.
	pendMu     sync.Mutex
	pending    []contrib
	pendingW   float64
	committing bool

	// admitted is the dedup horizon: per base round still inside the
	// staleness window, the set of clients whose update for that base was
	// counted — a retry of an already-counted push stays idempotent even
	// across commits. Guarded by pendMu; evicted with the window at each
	// commit (with window 0, the synchronous quorum keeps just its round).
	admitted map[int]map[int]bool

	// serveMu guards history, errFree and the creation of variant slots on a
	// snapshot (snapshot.served). It never spans O(model) work, so distinct
	// variants build concurrently and a build never stalls an unrelated pull.
	serveMu sync.Mutex

	// history (buffered mode) retains, per base round still inside the
	// staleness window, the round's snapshot — the base of its raw pushes,
	// and through its served variants the base of its compressed ones.
	// Evicted with the window at each round retire.
	history map[int]*snapshot

	// errFree holds residual vectors that are provably dead — nothing can
	// still read them — for the next builds to write their nextErr into
	// instead of allocating (see retireRoundLocked for the rule). Bounded by
	// maxCodecVariants.
	errFree [][]float64

	// segs pins segments() (withSegments); 0 (the default) tracks
	// GOMAXPROCS. Set before serving, never changed.
	segs int

	// headerTimeout, when positive, replaces readHeaderTimeout on the
	// listener Serve starts. Test seam (the production bound is seconds); set
	// before serving, never changed.
	headerTimeout time.Duration

	// buildHook, when non-nil, runs at the start of every served-model
	// build, under the variant's latch but outside serveMu. Test seam for
	// pinning build concurrency; set before serving, never changed.
	buildHook func(Compression)

	// deltaChains holds the delta-downlink state per codec variant that
	// negotiated delta=1 (servedelta.go). deltaMu guards only the map; each
	// chain's own mutex is the single-flight latch across its O(model)
	// advances, so distinct variants advance concurrently. The chains are a
	// separate subsystem from the served variants on purpose: they advance
	// lazily at pull time from the immutable snapshot, so round transitions
	// never touch them.
	deltaMu     sync.Mutex
	deltaChains map[Compression]*deltaChain

	// Counters and latency window — atomics, so Stats never contends with
	// aggregation.
	roundsCompleted   atomic.Int64
	duplicatesDropped atomic.Int64
	bytesInRaw        atomic.Int64
	bytesInComp       atomic.Int64
	bytesOutRaw       atomic.Int64
	bytesOutComp      atomic.Int64
	updatesRaw        atomic.Int64
	updatesComp       atomic.Int64
	bytesInSparse     atomic.Int64
	updatesSparse     atomic.Int64
	bytesOutDelta     atomic.Int64
	bytesOutCold      atomic.Int64
	deltaPulls        atomic.Int64
	coldPulls         atomic.Int64
	staleRejected     atomic.Int64
	servedBuilds      atomic.Int64
	admitLat          latRing
	pullLat           latRing

	// bufferedNow mirrors len(pending) as an atomic so tier flush policy and
	// /stats can read the live buffer depth without taking pendMu.
	bufferedNow atomic.Int64

	// oldestAdmit is the admission time (UnixNano) of the oldest update in
	// the current buffer, 0 while it is empty. Recorded at admission so a
	// tier's age-based flush deadline runs from when the update actually
	// buffered, not from when the flusher first looked at the buffer.
	// Written under pendMu, read lock-free by the flusher.
	oldestAdmit atomic.Int64

	// stalenessHist counts admitted updates per observed staleness
	// 0..maxStale (reported in buffered mode). Atomics, so /stats never
	// contends with admission.
	stalenessHist []atomic.Int64

	// bufPool recycles decoded-update buffers across pushes.
	bufPool sync.Pool

	// wal, when non-nil, is the open write-ahead log (WithWAL /
	// RecoverServer): every admission and every commit is logged before it
	// takes effect, in both aggregation modes, so a crashed process resumes
	// at its last commit with the admissions after it. Set before serving,
	// never changed.
	wal *wal

	// warnf receives operational warnings (WAL write failures, lossy
	// shutdowns); nil means the process log. Set before serving.
	warnf func(format string, args ...any)

	closeOnce sync.Once
	closeErr  error
}

// servedModel is one round's compressed pull body, its exact client-visible
// (dequantized) parameter values, and the downlink residual to carry into
// the next round if this round commits.
type servedModel struct {
	round   int
	body    []byte
	params  []float64
	bn      []float64
	nextErr []float64

	// finite records that every value of params is inside the admission
	// range (inRange — so in particular not NaN or ±Inf), proven once at
	// build time. Dequantised codes of an in-range model stay in range; the
	// sparse push path relies on it instead of sweeping the base per push.
	finite bool

	// codec and clen are the response's codec-echo and Content-Length header
	// values, formatted once at build time so the pull hot path writes
	// precomputed strings instead of formatting per request.
	codec string
	clen  string
}

// servedEntry is codec variant c's slot on a snapshot. val is the immutable
// built model, read lock-free; mu is the variant's single-flight latch, held
// across the O(model) build so N racing pulls for one variant run exactly
// one build while pulls for other variants (their own entries) and
// everything on serveMu proceed untouched.
type servedEntry struct {
	c   Compression
	mu  sync.Mutex
	val atomic.Pointer[servedModel]
}

// maxCodecVariants bounds how many distinct (bits, chunk) parameter sets
// the server will serve within one round. Each variant costs a few
// model-sized buffers; without a bound, a client cycling through chunk
// values could grow server memory without limit.
const maxCodecVariants = 8

// NewServer creates a parameter server seeded with the initial global model.
func NewServer(initParams, initBN []float64, updatesPerRound int, opts ...ServerOption) *Server {
	if updatesPerRound < 1 {
		panic("fldist: updatesPerRound must be ≥ 1")
	}
	var cfg serverConfig
	for _, o := range opts {
		o(&cfg)
	}
	s := &Server{
		id:          rand.Text(),
		bufferK:     updatesPerRound,
		segs:        cfg.segments,
		admitted:    map[int]map[int]bool{},
		history:     map[int]*snapshot{},
		deltaChains: map[Compression]*deltaChain{},
	}
	if cfg.bufferK != 0 || cfg.maxStale != 0 {
		if cfg.bufferK < 1 {
			panic("fldist: buffered aggregation needs a commit threshold ≥ 1")
		}
		if cfg.maxStale < 0 || cfg.maxStale > maxStalenessLimit {
			panic(fmt.Sprintf("fldist: max staleness %d outside [0,%d]", cfg.maxStale, maxStalenessLimit))
		}
		s.async = true
		s.bufferK = cfg.bufferK
		s.maxStale = cfg.maxStale
	}
	s.stalenessHist = make([]atomic.Int64, s.maxStale+1)
	s.model.Store(&snapshot{
		round:  0,
		params: append([]float64(nil), initParams...),
		bn:     append([]float64(nil), initBN...),
	})
	s.bufPool.New = func() any {
		return &updateBuf{
			params: make([]float64, len(initParams)),
			bn:     make([]float64, len(initBN)),
		}
	}
	s.warnf = cfg.warnf
	if cfg.walDir != "" {
		m := walMeta{
			async:     s.async,
			quorumOrK: s.bufferK,
			maxStale:  s.maxStale,
			nParams:   len(initParams),
			nBN:       len(initBN),
		}
		w, err := createWAL(cfg.walDir, m)
		if err != nil {
			panic(fmt.Sprintf("fldist: WAL: %v", err))
		}
		w.warnf = s.warn
		// The initial model is the first commit record: recovery always has
		// a snapshot to land on, even before any round completes.
		snap := s.model.Load()
		if err := w.appendCommit(w.reserve(), walCommit{round: 0, params: snap.params, bn: snap.bn}); err != nil {
			w.Close()
			panic(fmt.Sprintf("fldist: WAL initial commit: %v", err))
		}
		s.wal = w
	}
	return s
}

// warn reports an operational condition through warnf, defaulting to the
// process log.
func (s *Server) warn(format string, args ...any) {
	if s.warnf != nil {
		s.warnf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Shards returns how many contiguous ranges a commit folds the parameter
// vector over (foldRanges) — reported as Stats.Shards.
func (s *Server) Shards() int { return s.foldRanges() }

// Handler returns the HTTP routes of the parameter server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/model", s.handleModel)
	mux.HandleFunc("/round", s.handleRound)
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

// handleRound serves just the current round number, so clients waiting out a
// synchronous aggregation can poll cheaply instead of re-downloading the
// whole model blob. Lock-free.
func (s *Server) handleRound(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	w.Header().Set(serverHeader, s.id)
	fmt.Fprintf(w, "%d", s.model.Load().round)
}

// countReader counts bytes read through it.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	//lint:ignore determinism pull-latency stats only; never reaches served or replayed state
	start := time.Now()
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	comp, baseR, compressed, err := parseCodec(r.Header.Get(codecHeader))
	if err != nil {
		// A client that asked for compression we cannot parse must hear
		// about it rather than silently receive a raw body it may not
		// expect.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if compressed {
		if comp.Delta {
			s.handleDeltaModel(w, comp, baseR, start)
			return
		}
		// serveKey: a topk negotiation without delta shapes only the uplink,
		// so those clients share the dense variant's served body and base.
		sm, err := s.getServed(comp.serveKey(), -1)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// The body is an immutable finished byte slice — one Write, no
		// per-pull encode, no staging buffer. Content-Length lets clients
		// preallocate, and the counter charges what actually left (a puller
		// hanging up mid-body must not inflate the wire-saving numbers).
		w.Header().Set(codecHeader, sm.codec)
		w.Header().Set("Content-Type", contentTypeModel)
		w.Header().Set("Content-Length", sm.clen)
		writeCharged(w, sm.body, &s.bytesOutComp)
		//lint:ignore determinism latency histogram only; /stats is observability, not state
		s.pullLat.record(time.Since(start))
		return
	}
	// Raw pull: the snapshot's lazily built (once per round, single-flight)
	// raw-frame envelope is written straight out — no per-pull encode, no
	// lock. No codec echo: that absence is what tells the client it holds
	// exact values and pushes raw.
	body := s.model.Load().rawBody()
	w.Header().Set("Content-Type", contentTypeModel)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	writeCharged(w, body, &s.bytesOutRaw)
	//lint:ignore determinism latency histogram only; /stats is observability, not state
	s.pullLat.record(time.Since(start))
}

// writeCharged writes a pull body after charging its full length to every
// counter, then refunds whatever a short write did not deliver. A client can
// hold the whole Content-Length body before Write returns, so charging after
// the write let a /stats reader see the pull without its bytes; a puller that
// hangs up mid-body still ends at exactly the bytes written.
func writeCharged(w io.Writer, body []byte, counters ...*atomic.Int64) {
	for _, c := range counters {
		c.Add(int64(len(body)))
	}
	if n, _ := w.Write(body); n < len(body) {
		for _, c := range counters {
			c.Add(int64(n - len(body)))
		}
	}
}

// rawBody returns the snapshot's raw pull body — an FPM1 envelope of raw
// frames — encoding it on first use. sync.Once makes the encode
// single-flight and the result immutable, so a raw pull after the first is
// one Write of a shared slice.
func (sn *snapshot) rawBody() []byte {
	sn.rawOnce.Do(func() { sn.raw = rawModelEnvelope(sn.round, sn.params, sn.bn) })
	return sn.raw
}

// getServed returns the compressed pull body for the given codec parameters
// and the exact client-visible base values it exposes, as a variant of one
// snapshot built on first use. round ≥ 0 names the snapshot through baseAt —
// the current round or, in buffered mode, a retained one — so a push
// reconstructs against the base its client pulled; round < 0 takes the
// current round. A pull racing a commit serves the round it loaded, as if it
// had arrived a moment earlier.
//
// Parameters are chunk-quantized with downlink error feedback: the residual
// of quantizing the previous round's model at these codec parameters is
// folded in before quantizing, so pull-side compression error cancels over
// rounds instead of re-truncating the model to the quantization grid every
// round. The residual is the snapshot's own (snapshot.downErr) and only
// *read* here — the new one (nextErr) passes to the next snapshot when the
// round retires — so a variant is a pure function of (snapshot, codec)
// whenever it is built, and every participant sees the same base. The
// BatchNorm statistics travel as a raw frame — they are a few dozen values
// whose distortion (a running variance crushed toward zero) destabilizes
// normalization out of all proportion to the bytes saved.
func (s *Server) getServed(c Compression, round int) (*servedModel, error) {
	snap := s.model.Load()
	if round >= 0 {
		var err error
		if snap, err = s.baseAt(round); err != nil {
			return nil, err
		}
	}
	// A built variant resolves with atomic loads alone.
	e, _ := snap.variant(c)
	if e == nil {
		var free int
		s.serveMu.Lock()
		if e, free = snap.variant(c); e == nil && free < maxCodecVariants {
			e = &servedEntry{c: c}
			snap.served[free].Store(e)
		}
		s.serveMu.Unlock()
		if e == nil {
			return nil, fmt.Errorf("fldist: more than %d codec variants in one round", maxCodecVariants)
		}
	}
	if sm := e.val.Load(); sm != nil {
		return sm, nil
	}
	// Build under the variant's own latch: racing pulls for this variant
	// queue here and find val set; pulls for other variants, and everything
	// on serveMu, never wait on this O(model) work.
	e.mu.Lock()
	defer e.mu.Unlock()
	if sm := e.val.Load(); sm != nil {
		return sm, nil
	}
	if s.buildHook != nil {
		s.buildHook(c)
	}
	sm := s.buildServed(snap, c)
	s.servedBuilds.Add(1)
	e.val.Store(sm)
	return sm, nil
}

// variant returns c's slot on the snapshot, or nil and the index of the
// first free slot (maxCodecVariants when all are taken).
func (sn *snapshot) variant(c Compression) (*servedEntry, int) {
	for i := range sn.served {
		e := sn.served[i].Load()
		if e == nil || e.c == c {
			return e, i
		}
	}
	return nil, maxCodecVariants
}

// errStaleServe reports a served-base lookup for a round the server has
// already aggregated past (synchronous mode) or evicted from the staleness
// window (buffered mode). Matched with errors.Is so wrapping stays safe.
var errStaleServe = errors.New("fldist: served base for a stale round")

// baseAt resolves the snapshot of the given base round: the current model
// (lock-free — the common case), or in buffered mode a retained round
// inside the staleness window. A base round is never ahead of the model the
// caller checked it against, and rounds only advance, so a round that is not
// current now is retained or gone.
func (s *Server) baseAt(round int) (*snapshot, error) {
	if snap := s.model.Load(); round == snap.round {
		return snap, nil
	}
	s.serveMu.Lock()
	defer s.serveMu.Unlock()
	if snap := s.history[round]; snap != nil {
		return snap, nil
	}
	return nil, errStaleServe
}

// buildServed constructs one codec variant's served model from an immutable
// snapshot, segment-parallel: the frame size follows from the codec
// parameters (quant.Encoder), so the exact-size body is allocated up front,
// the envelope header written in place, and each chunk-aligned segment
// encoded by its own goroutine into its disjoint byte range. The
// EF-residual add, the encode and the residual fold are one pass per chunk
// (quant.Encoder.EncodeErrorFed), so no pass over the model is serial and
// none leaves the chunk's cache lines. The stitch identity
// (TestSegmentStitchGoldenBytes) makes the result byte-identical to a
// one-segment encode at any segment count and GOMAXPROCS;
// TestServeSegmentInvariance pins that end to end.
func (s *Server) buildServed(snap *snapshot, c Compression) *servedModel {
	n := len(snap.params)
	sm := &servedModel{
		round:  snap.round,
		params: make([]float64, n),
		bn:     snap.bn, // immutable snapshot slice — safe to share
	}
	var next []float64
	s.serveMu.Lock()
	if k := len(s.errFree); k > 0 {
		next, s.errFree = s.errFree[k-1], s.errFree[:k-1]
	}
	s.serveMu.Unlock()
	if len(next) != n {
		next = make([]float64, n)
	}
	e := quant.NewEncoder(c.Bits, c.Chunk, n, s.segments())
	bnFrame := quant.EncodeRaw(snap.bn)
	body := make([]byte, 9+e.Size()+len(bnFrame))
	copy(body, modelMagic)
	body[4] = envVersion
	binary.LittleEndian.PutUint32(body[5:9], uint32(snap.round))
	copy(body[9+e.Size():], bnFrame)

	// Per segment, in one pass per chunk: residual add, encode (which writes
	// deq from the code in hand), residual fold, with the finiteness verdict
	// on deq riding along as the segment's peak. Every element of next,
	// sm.params and the frame is overwritten, so a recycled next needs no
	// clearing.
	carry := snap.downErr[c].v
	if len(carry) != n {
		carry = nil
	}
	var nonFinite atomic.Bool
	frame := body[9 : 9+e.Size()]
	fanOut(len(e.Bounds())-1, func(k int) {
		if !inRange(e.EncodeErrorFed(frame, snap.params, carry, sm.params, next, k)) {
			nonFinite.Store(true)
		}
	})
	sm.finite = !nonFinite.Load()
	sm.nextErr = next
	sm.body = body
	sm.codec = codecValue(c)
	sm.clen = strconv.Itoa(len(body))
	return sm
}

// segments is how many segments a served build or delta-chain frame is
// encoded in: the pinned count, or one per processor.
func (s *Server) segments() int {
	if s.segs > 0 {
		return s.segs
	}
	return runtime.GOMAXPROCS(0)
}

// foldRanges is how many contiguous ranges a commit folds the parameter
// vector over: segments(), at most one per element, at least one.
func (s *Server) foldRanges() int {
	return max(min(s.segments(), len(s.model.Load().params)), 1)
}

// sendErrorFed is the one error-fed sender of the client uplink and the
// delta chain. owed is the new movement plus the carried residual; it is
// encoded over segs segments, one goroutine each — top-k sparse when
// c.TopK > 0, dense otherwise — and left holding the next residual, owed
// minus what the frame carries. When base is non-nil, what the frame carries
// is added to it: the chain base a decoder of the frame reconstructs. Every
// coordinate top-k drops stays whole in owed, so sparsifying delays a
// movement instead of losing it.
func sendErrorFed(owed []float64, c Compression, segs int, base []float64) []byte {
	var e *quant.Encoder
	var idx []int
	carried := len(owed)
	if c.TopK > 0 {
		idx = quant.TopKIndices(owed, c.TopK)
		e, carried = quant.NewSparseEncoder(c.Bits, c.Chunk, len(owed), idx, segs), len(idx)
	} else {
		e = quant.NewEncoder(c.Bits, c.Chunk, len(owed), segs)
	}
	deq := make([]float64, carried)
	frame := make([]byte, e.Size())
	fanOut(len(e.Bounds())-1, func(k int) {
		if idx == nil {
			e.EncodeErrorFed(frame, owed, nil, deq, owed, k)
		} else {
			e.EncodeSegment(frame, owed, deq, k)
		}
	})
	for j, d := range deq {
		i := j
		if idx != nil {
			i = idx[j]
			owed[i] -= d
		}
		if base != nil {
			base[i] += d
		}
	}
	return frame
}

// Admission bounds. Finite values alone do not keep a commit finite: the
// folds form Σw·x (or Σw·(x−base)) over the buffer and 1/Σw, and a large
// weight times a large value — or the reciprocal of a subnormal weight —
// overflows. Weights in [2^-64, 2^64] and values of magnitude ≤ 2^256 keep
// every intermediate of both folds finite for any buffer a server
// holds; no trained model comes near either bound, so no admitted bit moves.
const (
	minWeight = 0x1p-64
	maxWeight = 0x1p64
	maxValue  = 0x1p256
)

// inRange reports whether x is inside the admission range, in one comparison
// (NaN fails every ordered comparison).
func inRange(x float64) bool { return math.Abs(x) <= maxValue }

// allWithin reports whether every value of v has magnitude at most limit —
// for limit maxValue, whether v is inside the admission range.
func allWithin(v []float64, limit float64) bool {
	for _, x := range v {
		if !(math.Abs(x) <= limit) {
			return false
		}
	}
	return true
}

// pushScratch is the pooled per-request machinery of the push path: a
// byte-counting reader, the WAL capture's tee target, a buffered reader
// batching small chunk reads off the HTTP body, and two reusable frame
// decoders. One Get/Put pair per push keeps the handler's own allocation
// count flat.
type pushScratch struct {
	cr  countReader
	tee appendWriter
	br  *bufio.Reader
	pd  quant.StreamDecoder
	bd  quant.StreamDecoder
}

var pushScratchPool = sync.Pool{
	New: func() any { return &pushScratch{br: bufio.NewReaderSize(nil, 32<<10)} },
}

// handleUpdate is the one push handler. Every body is an FPU1 envelope, and
// its params frame selects the form: a raw frame carries the trained vector
// itself and is admitted against the snapshot of its round (baseAt); a
// quantized frame, dense or sparse, carries a delta the server applies to
// the exact base it served at the same codec parameters — or, for a
// delta-downlink client, to the chain entry of its round (resolveBase, which
// WAL replay shares). The body is stream-decoded chunk-by-chunk
// (decodeUpdate) — O(chunk) transient memory, never the whole wire body —
// into a pooled buffer, and all forms leave through one admission tail
// (finishUpdate).
//
// No MaxBytesReader is needed: every read is closed-form bounded before it
// happens — the fixed 21-byte envelope header, two 14-byte frame headers,
// and payloads whose sizes follow from the frame's value count, which is
// validated against the model shape before any payload byte is read. A body
// longer than its frames fails the trailing-bytes probe with 400; the excess
// is never buffered.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	//lint:ignore determinism admit-latency stats only; never reaches folded or replayed state
	start := time.Now()
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set(serverHeader, s.id)
	snap := s.model.Load()
	sc := pushScratchPool.Get().(*pushScratch)
	sc.cr = countReader{r: r.Body}
	raw, sparse := false, false // the params frame's form, once it is known
	defer func() {
		s.countBytesIn(raw, sparse, sc.cr.n)
		sc.tee.b = nil
		sc.br.Reset(nil) // drop the request body reference before pooling
		pushScratchPool.Put(sc)
	}()

	// With an admission log, tee the body — envelope header and wire frames,
	// verbatim — into a pooled admission capture as it is read: recovery
	// replays the record through this same header parser, decoder, resolver
	// and registry (recover.go). Speculative: rejected pushes release the
	// capture unwritten.
	var wrec *walAdmit
	src := io.Reader(&sc.cr)
	if s.wal != nil {
		wrec = s.wal.newAdmit()
		defer func() {
			if wrec != nil {
				s.wal.releaseAdmit(wrec)
			}
		}()
		sc.tee.b = &wrec.body
		src = io.TeeReader(src, &sc.tee)
	}

	// The envelope header is read straight off the body, not through the
	// buffered reader: a push refused on its header has read, and is charged,
	// the header alone.
	var hdr [updateHeaderLen]byte
	if _, err := io.ReadFull(src, hdr[:]); err != nil {
		http.Error(w, fmt.Sprintf("fldist: update envelope header: %v", err), http.StatusBadRequest)
		return
	}
	clientID, round, weight, err := parseUpdateHeader(hdr[:])
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !s.admissibleRound(w, round, snap) {
		return
	}
	if err := checkWeight(weight); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// A delta-downlink client (codec negotiated with delta=1) declares its
	// codec on the push too: its training base is a chain entry in the
	// per-round base registry (servedelta.go), not a served model.
	pushComp, _, pushNeg, err := parseCodec(r.Header.Get(codecHeader))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	deltaPush := pushNeg && pushComp.Delta

	sc.br.Reset(src)

	// A delta-mode client's quantized frames decode against the chain entry
	// at its held round; the log cannot rebuild chains, so the capture keeps
	// that base. Every other form resolves through resolveBase alone.
	buf := s.bufPool.Get().(*updateBuf)
	base, err := decodeUpdate(sc.br, &sc.pd, &sc.bd, buf, func(pd *quant.StreamDecoder) (updateBase, error) {
		raw, sparse = pd.IsRaw(), pd.IsSparse()
		var chain *updateBase
		if deltaPush && !raw {
			e, ok := s.deltaBaseAt(pushComp, round)
			if !ok {
				// No chain (the server restarted) or the round fell out of
				// the window: the client must re-pull — landing cold on the
				// fresh chain — and retrain.
				return updateBase{}, errStaleServe
			}
			chain = &updateBase{p: e.baseP, bn: e.baseBN, finite: e.finite}
			if wrec != nil {
				// Its own copy, so chain stays off the heap without a log.
				wrec.chain = &updateBase{p: e.baseP, bn: e.baseBN}
			}
		}
		return s.resolveBase(pd, round, chain)
	})
	if err != nil {
		s.bufPool.Put(buf)
		if errors.Is(err, errStaleServe) {
			s.rejectStale(w, round)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rec := wrec
	wrec = nil // ownership passes; finishUpdate releases on rejection
	s.finishUpdate(w, clientID, round, weight, buf, base.p, base.bn, raw, sparse, start, rec)
}

// resolveBase is the one base resolver of an update, shared by the push
// handler and WAL replay; it runs once decodeUpdate has read the params
// frame header. A raw frame carries the trained vector itself and resolves
// to the snapshot of its round (baseAt). A quantized frame is a delta: onto
// chain, the delta-chain entry a delta-downlink client trained from, when
// there is one, and otherwise onto the served dequantized model of that
// round at the frame's codec (getServed) — deterministic, so building it on
// first use yields the values its client pulled.
func (s *Server) resolveBase(pd *quant.StreamDecoder, round int, chain *updateBase) (updateBase, error) {
	switch {
	case pd.IsRaw():
		b, err := s.baseAt(round)
		if err != nil {
			return updateBase{}, err
		}
		return updateBase{p: b.params, bn: b.bn}, nil
	case chain != nil:
		return *chain, nil
	}
	comp, err := Compression{Bits: pd.Bits(), Chunk: pd.Chunk()}.normalize()
	if err != nil {
		return updateBase{}, err
	}
	sm, err := s.getServed(comp, round)
	if err != nil {
		return updateBase{}, err
	}
	return sm.base(), nil
}

// updateBase is the base an update decodes against: the parameters a
// quantized params frame is a delta onto, the BN statistics a non-raw
// update's BN frame is added to, and whether every base parameter is proven
// inside the admission range — what a sparse frame needs, since its range
// check sees only the coordinates it writes (servedModel.finite,
// deltaEntry.finite).
type updateBase struct {
	p, bn  []float64
	finite bool
}

// base is the served model as the base of the deltas pushed against it.
func (sm *servedModel) base() updateBase {
	return updateBase{p: sm.params, bn: sm.bn, finite: sm.finite}
}

// decodeUpdate is the one decoder of an update's frames: the push handler
// runs it over the request body, WAL replay over a logged admission's
// frames. It reads the params frame header from r, asks resolve for the
// base the update trained from (resolve inspects the frame's form and
// codec), and decodes into buf: a raw frame is the trained vector itself, a
// dense or sparse quantized frame a delta added onto the base. The BN frame
// follows — absolute after a raw params frame, a delta onto the base's BN
// otherwise — and must end r. Both frames must match buf's shape, every
// value must land inside the admission range (NaN and ±Inf among the
// refused — a wire scale can be hostile), and a sparse frame needs a base
// proven in range. pd and bd are the caller's (pooled) frame decoders; on
// error buf holds garbage and resolve's own errors come back unwrapped.
func decodeUpdate(r frameReader, pd, bd *quant.StreamDecoder, buf *updateBuf,
	resolve func(pd *quant.StreamDecoder) (updateBase, error)) (updateBase, error) {
	if err := pd.Reset(r); err != nil {
		return updateBase{}, fmt.Errorf("fldist: update params frame: %v", err)
	}
	if pd.Len() != len(buf.params) {
		return updateBase{}, errShapeMismatch
	}
	base, err := resolve(pd)
	if err != nil {
		return updateBase{}, err
	}
	switch {
	case pd.IsRaw():
		if err := pd.DecodeAll(buf.params); err != nil {
			return updateBase{}, fmt.Errorf("fldist: update params frame: %v", err)
		}
		if !allWithin(buf.params, maxValue) {
			return updateBase{}, errOutOfRange
		}
	case pd.IsSparse() && !base.finite:
		return updateBase{}, errOutOfRange
	default:
		// Out-of-range sums are refused where they land.
		if err := pd.ApplyDelta(buf.params, base.p, maxValue); err != nil {
			return updateBase{}, fmt.Errorf("fldist: update params frame: %v", err)
		}
	}
	if err := bd.Reset(r); err != nil {
		return updateBase{}, fmt.Errorf("fldist: update bn frame: %v", err)
	}
	if bd.Len() != len(buf.bn) {
		return updateBase{}, errShapeMismatch
	}
	if err := bd.DecodeAll(buf.bn); err != nil {
		return updateBase{}, fmt.Errorf("fldist: update bn frame: %v", err)
	}
	for i, v := range buf.bn {
		if !pd.IsRaw() {
			v += base.bn[i]
		}
		if !inRange(v) {
			return updateBase{}, errOutOfRange
		}
		buf.bn[i] = v
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return updateBase{}, errors.New("fldist: update has trailing bytes after its frames")
	}
	return base, nil
}

// frameReader is what decodeUpdate reads: the push handler's buffered body
// or a logged admission's bytes.
type frameReader interface {
	io.Reader
	io.ByteReader
}

// The decoder's verdicts on an update whose frames parse but do not fit.
var (
	errShapeMismatch = errors.New("fldist: update frames do not match the model shape")
	errOutOfRange    = errors.New("fldist: value out of range in update")
)

// admissibleRound runs the cheap pre-admission round check against the
// lock-free snapshot (the admission registry re-checks authoritatively): the
// update's base round must sit inside the admission window — under the
// synchronous quorum (window 0), be the current round. A failed check
// answers 409 and reports false.
func (s *Server) admissibleRound(w http.ResponseWriter, round int, snap *snapshot) bool {
	if d := snap.round - round; d < 0 || d > s.maxStale {
		s.rejectStale(w, round)
		return false
	}
	return true
}

// rejectStale answers 409 for a push outside the admission window and
// charges the stale-rejection counter (a client hearing this has wasted the
// training pass).
func (s *Server) rejectStale(w http.ResponseWriter, round int) {
	s.staleRejected.Add(1)
	http.Error(w, fmt.Sprintf("stale round %d, outside the admission window", round),
		http.StatusConflict)
}

// appendWriter is the tee target of the push handler's WAL capture: an
// io.Writer appending into a pooled byte slice.
type appendWriter struct{ b *[]byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	*w.b = append(*w.b, p...)
	return len(p), nil
}

// checkWeight rejects FedAvg weights outside [minWeight, maxWeight] — zero,
// negative, NaN and ±Inf among them. NaN compares false to everything, so
// the check is written as the in-range condition negated; one poisoned
// weight would corrupt the weighted average for every client with no
// recovery.
func checkWeight(w float64) error {
	if !(w >= minWeight && w <= maxWeight) {
		return fmt.Errorf("weight %v outside [2^-64, 2^64]", w)
	}
	return nil
}

// registerOutcome is the admission registry's verdict on one decoded update.
type registerOutcome int

const (
	regAdmitted     registerOutcome = iota
	regAdmittedLast                 // admitted, and this update filled the buffer (or quorum)
	regDuplicate
	regStale
	regQuorumFull // buffer full or commit in flight: wait it out and re-register
	regBufferFull // manual mode: admission cap reached, flusher behind — retryable, nothing to wait out
)

// register is the admission registry — the small global critical section of
// the push path, one for both aggregation modes and for WAL replay: the
// authoritative window check, the per-(baseRound, client) duplicate check,
// the buffer count, and the park (one append to the pending list). The
// model-sized work — decode, dequantize, base reconstruction, finiteness —
// happened before this call, outside any lock. The contribution's effective
// weight is discounted here — weight/(1+staleness) — with the staleness the
// registry observes, which is stable until the next commit; under the
// synchronous quorum the window is 0 and weight/1 is weight exactly.
// baseP/baseBN are the exact base vectors the update trained from (snapshot,
// served model or chain entry — immutable either way); buf is leased from
// bufPool and, once parked, released by the commit's reset. It returns the
// outcome plus the round the registry observed, so a quorum-full caller can
// wait out the in-flight commit and retry. wrec, when non-nil, is the
// update's WAL capture: on admission its sequence number is reserved here —
// inside pendMu, where logical order is decided, so the log's file order
// matches admission order.
func (s *Server) register(clientID, baseRound int, weight float64, buf *updateBuf,
	baseP, baseBN []float64, wrec *walAdmit) (registerOutcome, int) {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	snap := s.model.Load()
	stale := snap.round - baseRound
	if stale < 0 || stale > s.maxStale {
		return regStale, snap.round
	}
	if s.admitted[baseRound][clientID] {
		s.duplicatesDropped.Add(1)
		return regDuplicate, snap.round
	}
	if s.committing || (!s.manual && len(s.pending) >= s.bufferK) {
		// A commit is folding right now: the buffer filled (auto mode) or the
		// edge's flusher froze it (manual mode). The caller waits the commit
		// out and re-registers: in buffered mode the update may still be
		// inside the next round's window; under the quorum it is then stale,
		// and the 409 is only observable once /round reports the new round.
		// Manual mode never fills-and-folds on the admission path, so the
		// bufferK threshold does not gate it — manualCap below does, so a
		// wedged flusher cannot let admissions buffer without bound.
		return regQuorumFull, snap.round
	}
	if s.manual && s.manualCap > 0 && len(s.pending) >= s.manualCap {
		// Only the flusher drains a manual-mode buffer, and it is behind —
		// wedged against an unreachable upstream, or mid-resync. No commit
		// is in flight to wait out, so the caller answers the retryable
		// verdict immediately instead of spinning.
		return regBufferFull, snap.round
	}
	effW := weight / float64(1+stale)
	s.markAdmittedLocked(baseRound, clientID)
	if len(s.pending) == 0 {
		//lint:ignore determinism admission age clock paces edge flushes; folded bytes are unaffected
		s.oldestAdmit.Store(time.Now().UnixNano())
	}
	s.pending = append(s.pending, contrib{clientID: clientID, baseRound: baseRound, weight: effW,
		buf: buf, baseP: baseP, baseBN: baseBN})
	s.pendingW += effW
	s.bufferedNow.Add(1)
	s.stalenessHist[stale].Add(1)
	if wrec != nil {
		wrec.seq = s.wal.reserve()
	}
	if !s.manual && len(s.pending) == s.bufferK {
		return regAdmittedLast, snap.round
	}
	return regAdmitted, snap.round
}

// markAdmittedLocked enters (baseRound, clientID) into the dedup horizon.
// Caller holds pendMu, or is recovery re-marking a folded admission before
// the server serves.
func (s *Server) markAdmittedLocked(baseRound, clientID int) {
	set := s.admitted[baseRound]
	if set == nil {
		set = map[int]bool{}
		s.admitted[baseRound] = set
	}
	set[clientID] = true
}

// countBytesIn charges n push-body bytes to the counters of the params
// frame's form: raw or compressed, and sparse as a subset of compressed.
func (s *Server) countBytesIn(raw, sparse bool, n int64) {
	if raw {
		s.bytesInRaw.Add(n)
	} else {
		s.bytesInComp.Add(n)
	}
	if sparse {
		s.bytesInSparse.Add(n)
	}
}

// countUpdate counts one admitted update by its params frame's form.
func (s *Server) countUpdate(raw, sparse bool) {
	if raw {
		s.updatesRaw.Add(1)
		return
	}
	s.updatesComp.Add(1)
	if sparse {
		s.updatesSparse.Add(1)
	}
}

// finishUpdate is the transport-independent tail of every push: admission,
// stats attribution, the commit barrier when the buffer fills, and the HTTP
// verdict. buf goes back to bufPool on every outcome but admission (the
// commit's reset releases it then). A registration racing an in-flight
// commit waits the commit out and retries instead of answering a premature
// 409. raw and sparse attribute the update to its /stats series, charged
// only once the update actually counts.
func (s *Server) finishUpdate(w http.ResponseWriter, clientID, baseRound int, weight float64,
	buf *updateBuf, baseP, baseBN []float64, raw, sparse bool, start time.Time, wrec *walAdmit) {
	for {
		outcome, observed := s.register(clientID, baseRound, weight, buf, baseP, baseBN, wrec)
		switch outcome {
		case regQuorumFull:
			s.awaitRoundAdvance(observed)
			if s.model.Load().round != observed {
				continue
			}
			// The commit never landed within the deadline; fail the push
			// rather than spin. This is a server-side stall, not a staleness
			// verdict: the update may be perfectly fresh, so staleRejected
			// is not charged and the retry header tells the client to re-push
			// the same body instead of discarding the training pass.
			s.drop(buf, wrec)
			w.Header().Set(retryHeader, "1")
			http.Error(w, fmt.Sprintf("round %d commit still in flight, retry", observed),
				http.StatusConflict)
			return
		case regStale:
			s.drop(buf, wrec)
			s.rejectStale(w, baseRound)
			return
		case regBufferFull:
			// Not a staleness verdict (staleRejected stays uncharged): the
			// buffer is full because the tier's flusher is behind. The retry
			// header tells the client to re-push the same body later instead
			// of discarding the training pass.
			s.drop(buf, wrec)
			w.Header().Set(retryHeader, "1")
			http.Error(w, "update buffer full, retry", http.StatusConflict)
			return
		case regDuplicate:
			// Retry of an already-counted update (e.g. the client timed out
			// waiting for a slow 200). Acknowledge without re-counting so the
			// FedAvg weights stay correct and the client moves on.
			s.drop(buf, wrec)
			w.Header().Set("X-Fldist-Duplicate", "1")
			w.WriteHeader(http.StatusOK)
			return
		}
		s.countUpdate(raw, sparse)
		//lint:ignore determinism latency histogram only; /stats is observability, not state
		s.admitLat.record(time.Since(start))
		if wrec != nil {
			// Write this admission's record before a possible commit: the
			// commit record's ordered append waits for every earlier sequence
			// number, ours included, and this goroutine is the one that runs
			// the commit below.
			_ = s.wal.appendAdmit(wrec) // failure warns once and sticks; serving continues
		}
		if outcome == regAdmittedLast {
			s.commit()
		}
		if s.manual {
			s.signalFlush()
		}
		w.WriteHeader(http.StatusOK)
		return
	}
}

// drop returns a non-admitted update's buffer and WAL capture to their
// pools.
func (s *Server) drop(buf *updateBuf, wrec *walAdmit) {
	s.bufPool.Put(buf)
	if wrec != nil {
		s.wal.releaseAdmit(wrec)
	}
}

// awaitRoundAdvance briefly blocks a quorum-raced update until the
// in-flight fold publishes the next snapshot, so its 409 is never observed
// while /round still reports the old round. The fold is O(model) work in
// another handler — milliseconds — but a deadline bounds the wait anyway.
func (s *Server) awaitRoundAdvance(round int) {
	//lint:ignore determinism deadline bounds a wait; the published snapshot is the same either way
	deadline := time.Now().Add(2 * time.Second)
	//lint:ignore determinism deadline bounds a wait; the published snapshot is the same either way
	for s.model.Load().round == round && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
}

// commit is the round barrier of both aggregation modes. It folds the
// pending list into a fresh snapshot (foldPending, which carries the
// determinism argument) and retires the round's serve plane
// (retireRoundLocked). The fold reads the list outside pendMu: the registry
// is frozen — the K-th admission filled the buffer, or commitNow set
// committing — so no registration appends until the reset below, and the
// appends that built the list happened before this goroutine's last pendMu
// acquisition. Then, under pendMu, it logs the commit
// record ahead of its effect, publishes the snapshot, evicts the dedup
// horizon that fell out of the window and releases the folded buffers, so
// racing registrations observe either the full old buffer (and wait the
// commit out) or the fresh empty one. Its only branch is the fold kernel:
// the synchronous quorum folds the FedAvg Σwp/Σw, buffered mode the
// staleness-weighted deltas onto the current model. The handler whose update
// filled the quorum or buffer runs it, as do an edge's commitNow and a
// recovery whose replay filled the buffer.
func (s *Server) commit() {
	old := s.model.Load()
	next := &snapshot{
		round:  old.round + 1,
		params: make([]float64, len(old.params)),
		bn:     make([]float64, len(old.bn)),
	}
	curP, curBN := old.params, old.bn
	if !s.async {
		curP, curBN = nil, nil // the quorum averages; nothing to apply deltas onto
	}
	s.foldPending(next, curP, curBN)

	s.serveMu.Lock()
	s.retireRoundLocked(old, next)
	s.pendMu.Lock()
	if s.wal != nil {
		s.logCommitLocked(next)
	}
	s.model.Store(next)
	s.evictAdmittedLocked(next.round)
	s.resetPendingLocked()
	s.pendMu.Unlock()
	s.serveMu.Unlock()

	s.roundsCompleted.Add(1)
}

// evictAdmittedLocked drops the dedup sets of base rounds that fell out of
// the admission window of round. Caller holds pendMu.
func (s *Server) evictAdmittedLocked(round int) {
	for r := range s.admitted {
		if r < round-s.maxStale {
			delete(s.admitted, r)
		}
	}
}

// logCommitLocked appends the commit record — the new snapshot plus the
// downlink error-feedback residual of every codec variant it carries — to
// the WAL, before the snapshot is published: log-then-publish is what makes
// a served round always recoverable. Caller holds serveMu and pendMu (the
// reservation under pendMu orders the record after every admission it
// folded; the record's fsync seals them all). A write failure warns once and
// degrades the server to in-memory durability; it never blocks the commit.
func (s *Server) logCommitLocked(next *snapshot) {
	c := walCommit{round: next.round, params: next.params, bn: next.bn}
	for comp, r := range next.downErr {
		//lint:ignore determinism appendWALCommit sorts the variants, so the record's bytes do not depend on this order
		c.downErr = append(c.downErr, walVariantErr{comp: comp, residual: r.v})
	}
	_ = s.wal.appendCommit(s.wal.reserve(), c)
}

// retireRoundLocked is the serve-plane half of a round transition, shared by
// commit and the edge tier's adopt. It gives next, not yet published, its
// downlink residuals: for each variant built on old, that build's nextErr; a
// variant not built on old — buffered commits can outpace a slow puller, a
// quorum round can pass without a codec's clients, a build may still be in
// flight — carries old's residual forward instead of restarting its chain
// from zero (if that grows the map past the per-round variant bound, the
// carried entries are the ones dropped). It then retains old for the
// staleness window and evicts rounds that fell out of it (the quorum's
// window 0 retains none). Caller holds serveMu.
//
// old.downErr[c] is recycled as a future nextErr only if (a) old built c and
// (b) the vector was not itself carried, so old's parent built c too. Then
// nothing reads it again: builds of c on old are its only readers, and the
// one that ran has published — every later request finds val set — while
// the parent's build that wrote it has finished and the WAL serialised it
// synchronously at the parent's retire. A carried vector is also the
// parent's input, which a late build on the parent — a retained round, a
// pull racing a commit — may still read, so it is left to the garbage
// collector. Bodies and params are never recycled: a pull handler may be
// mid-Write on a retired round's body.
func (s *Server) retireRoundLocked(old, next *snapshot) {
	next.downErr = make(map[Compression]residual, len(old.downErr))
	for c, r := range old.downErr {
		next.downErr[c] = residual{v: r.v, carried: true}
	}
	for i := range old.served {
		e := old.served[i].Load()
		if e == nil {
			break
		}
		sm := e.val.Load()
		if sm == nil {
			continue
		}
		if r := old.downErr[e.c]; r.v != nil && !r.carried && len(s.errFree) < maxCodecVariants {
			s.errFree = append(s.errFree, r.v)
		}
		next.downErr[e.c] = residual{v: sm.nextErr}
	}
	if len(next.downErr) > maxCodecVariants {
		for c, r := range next.downErr {
			if r.carried {
				delete(next.downErr, c)
			}
		}
	}
	s.history[old.round] = old
	for r := range s.history {
		if r < next.round-s.maxStale {
			delete(s.history, r)
		}
	}
}

// fanOut runs f(0), …, f(n−1) and returns when every call has: concurrently
// when there is more than one and the runtime can actually parallelize — the
// last on the calling goroutine — and inline otherwise, where a goroutine
// fan-out is pure overhead. Callers hand it disjoint work (fold ranges,
// chunk-aligned segments), so the result is identical either way.
func fanOut(n int, f func(i int)) {
	if n < 2 || runtime.GOMAXPROCS(0) < 2 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	f(n - 1)
	wg.Wait()
}

// resetPendingLocked recycles the folded round's pooled update buffers into
// bufPool and empties the pending list, its weight sum, and the in-flight
// commit mark. Caller holds pendMu, and the fold must be done with these
// buffers; truncating keeps the list's capacity for the next round's
// appends, and clearing its entries drops their references so released
// buffers and bases are not pinned past the fold.
func (s *Server) resetPendingLocked() {
	s.pendingW = 0
	s.committing = false
	s.bufferedNow.Store(0)
	s.oldestAdmit.Store(0)
	for _, c := range s.pending {
		s.bufPool.Put(c.buf)
	}
	clear(s.pending)
	s.pending = s.pending[:0]
}

// handleStats serves the traffic and progress counters as JSON. Counters are
// atomics: a stats poll never blocks — or is blocked by — in-flight
// aggregation.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	st := s.Stats()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}

// Stats returns a snapshot of the server's traffic and progress counters.
// It reads only atomics and the immutable model snapshot — it never blocks
// in-flight pushes or pulls.
func (s *Server) Stats() Stats {
	p50, p99 := s.admitLat.percentiles()
	pullP50, pullP99 := s.pullLat.percentiles()
	st := Stats{
		Round:              s.model.Load().round,
		RoundsCompleted:    int(s.roundsCompleted.Load()),
		DuplicatesDropped:  int(s.duplicatesDropped.Load()),
		Shards:             s.foldRanges(),
		BytesInRaw:         s.bytesInRaw.Load(),
		BytesInCompressed:  s.bytesInComp.Load(),
		BytesOutRaw:        s.bytesOutRaw.Load(),
		BytesOutCompressed: s.bytesOutComp.Load(),
		UpdatesRaw:         s.updatesRaw.Load(),
		UpdatesCompressed:  s.updatesComp.Load(),
		AdmitP50Micros:     p50,
		AdmitP99Micros:     p99,
		PullP50Micros:      pullP50,
		PullP99Micros:      pullP99,
		ServedBuilds:       s.servedBuilds.Load(),
		BytesInSparse:      s.bytesInSparse.Load(),
		UpdatesSparse:      s.updatesSparse.Load(),
		BytesOutDelta:      s.bytesOutDelta.Load(),
		BytesOutCold:       s.bytesOutCold.Load(),
		DeltaPulls:         s.deltaPulls.Load(),
		ColdPulls:          s.coldPulls.Load(),
	}
	if s.wal != nil {
		st.WAL = s.wal.stats()
	}
	if s.async {
		b := &BufferedStats{
			BufferSize:    s.bufferK,
			MaxStaleness:  s.maxStale,
			StaleRejected: s.staleRejected.Load(),
			StalenessHist: make([]int64, len(s.stalenessHist)),
		}
		for i := range b.StalenessHist {
			b.StalenessHist[i] = s.stalenessHist[i].Load()
		}
		st.Buffered = b
	}
	return st
}

// Round returns the server's current round. Lock-free.
func (s *Server) Round() int { return s.model.Load().round }

// RoundsCompleted returns how many aggregations have happened. Lock-free.
func (s *Server) RoundsCompleted() int { return int(s.roundsCompleted.Load()) }

// Snapshot returns a copy of the current global parameters and BN stats.
func (s *Server) Snapshot() ([]float64, []float64) {
	snap := s.model.Load()
	return append([]float64(nil), snap.params...), append([]float64(nil), snap.bn...)
}

// Slow-peer bounds on every listener this package's tiers run behind. A peer
// gets readHeaderTimeout to deliver its request headers — one that opens a
// connection and stalls is dropped, its goroutine with it — and a kept-alive
// connection idleTimeout between requests. Bodies carry no deadline: a model
// pull or push over a thin edge uplink is legitimately slow, and its size is
// already bounded by the handlers.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns the http.Server every tier serves h on (serve): the
// slow-peer bounds above and nothing else set.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// serve is the tiers' one serve loop: it serves hs on ln until ctx is
// canceled, then shuts it down gracefully — in-flight requests get 5 s to
// finish, new connections are refused. It returns nil on that shutdown.
func serve(ctx context.Context, ln net.Listener, hs *http.Server) error {
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			return fmt.Errorf("fldist: shutdown: %w", err)
		}
		<-errc // drain the ErrServerClosed from Serve
		return nil
	case err := <-errc:
		return fmt.Errorf("fldist: serve: %w", err)
	}
}

// ListenAndServe listens on addr and runs Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("fldist: listen: %w", err)
	}
	return s.Serve(ctx, ln)
}

// Serve runs the parameter server on an existing listener until ctx is
// canceled, then shuts down gracefully (serve). The listener is closed on
// return, and so is the server (Close — the WAL is released for a successor).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	defer s.Close()
	hs := NewHTTPServer(s.Handler())
	if s.headerTimeout > 0 {
		hs.ReadHeaderTimeout = s.headerTimeout
	}
	return serve(ctx, ln, hs)
}

// Close releases the server's durable resources (the WAL and its lock — the
// handoff signal for a waiting successor) and accounts for what a stop at
// this instant abandons: a non-empty admission buffer is work clients
// already got a 200 for. With a WAL every such update is in the log and
// RecoverServer replays it, in either aggregation mode; without one the
// buffered state dies with the process, and the close warns with the count
// either way, so operators can tell a clean drain from a lossy stop. Serve
// calls Close on the way out; call it directly when the handlers are mounted
// on an external mux. Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.pendMu.Lock()
		n := len(s.pending)
		s.pendMu.Unlock()
		if n > 0 {
			switch {
			case s.wal == nil:
				s.warn("fldist: closing with %d buffered update(s) pending and no WAL — they are lost; their clients must re-push", n)
			case s.wal.uncommitted.Load() == int64(n):
				s.warn("fldist: closing with %d buffered update(s) uncommitted — all logged; RecoverServer replays them", n)
			default:
				s.warn("fldist: closing with %d buffered update(s) uncommitted but only %d in the WAL (write failures?) — the missing ones are lost; their clients must re-push", n, s.wal.uncommitted.Load())
			}
		}
		if s.wal != nil {
			s.closeErr = s.wal.Close()
		}
	})
	return s.closeErr
}
