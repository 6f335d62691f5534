// Package fldist provides a real distributed transport for the federated
// training loop: an HTTP parameter server and a client that pulls the global
// model, trains locally (PGD adversarial training), and pushes weighted
// updates. Everything else in this repository simulates federation
// in-process for experimental control; this package is the deployment path a
// downstream user of the library would run on actual edge devices, with the
// same FedAvg/partial-average semantics.
//
// Two wire protocols coexist and are negotiated per client (docs/WIRE.md):
//
//   - Raw: gob-encoded ModelBlob / Update bodies with full-precision
//     float64 parameters — the original protocol, kept as the fallback so
//     old clients interoperate.
//   - Compressed deltas: the client pulls a chunk-quantized global model
//     (binary quant frames) and pushes a quantized *delta* against that
//     pulled base, carrying the quantization residual into its next round's
//     delta (error feedback) so compression error does not accumulate in
//     the global model. The server dequantizes, reconstructs base+delta,
//     and feeds the result into the same weighted average as raw updates —
//     a mixed fleet aggregates correctly.
//
// The server aggregates under parameter-range sharding (shard.go): the
// global model is a copy-on-write snapshot read lock-free by every handler,
// push bodies stream-decode chunk-by-chunk into pooled buffers with O(chunk)
// transient memory, and the only global critical section on the push path is
// a constant-size admission registry (O(shards) pointer appends, nothing
// proportional to the model). Stats are atomics, so a /stats poll never
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
// slowest client. The wire protocol is identical in both modes (the update
// envelope always carried its base round; see docs/WIRE.md).
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
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fedprophet/internal/quant"
)

// ModelBlob is the wire format of the global model state.
type ModelBlob struct {
	Round  int
	Params []float64
	BN     []float64
}

// Update is one client's contribution for a round.
type Update struct {
	ClientID int
	Round    int
	Weight   float64 // FedAvg weight qk (local dataset size)
	Params   []float64
	BN       []float64
}

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
// Lock hierarchy (see docs/ARCHITECTURE.md). The machine-readable
// declaration below is the single source of truth fplint's lockorder
// analyzer checks every acquisition against:
//
// model is an atomic copy-on-write snapshot — reads take no lock at all.
// pendMu guards only the small admission registry (dedup set + quorum
// counter); the model-sized decode/validate/reconstruct work of every push
// happens before it, concurrently across requests. Each shard's mutex guards
// that shard's pending-contribution list. serveMu guards the per-codec
// served-model cache and downlink error-feedback state, touched once per
// client per round on pulls, never on the push fast path. All counters are
// atomics.
//
//lint:lockorder servedEntry.mu -> Server.serveMu -> Server.pendMu -> shard.mu
type Server struct {
	updatesPerRound int
	nShards         int

	// Buffered bounded-staleness mode (WithBufferedAggregation): async
	// selects it, bufferK is the commit threshold, maxStale the admission
	// window in rounds.
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
	// manualCap bounds pendingN in manual mode, where nothing on the
	// admission path ever drains the buffer: with the tier's flusher wedged
	// (an upstream outage, a stalled resync), admissions would otherwise
	// retain model-sized update buffers without limit. At the cap, admission
	// answers the retryable buffer-full verdict until the flusher catches
	// up. Set alongside manual, before serving starts.
	manualCap int

	// model is the current immutable global state; round advance installs a
	// fresh snapshot. The swap happens under pendMu (and, for the serving
	// state, under serveMu) so registrations and cache builds always observe
	// a consistent (round, pending, served) triple.
	model atomic.Pointer[snapshot]

	// pendMu guards the admission registry: which clients already counted
	// toward the current round, how many, their summed effective weight, and
	// the pooled buffers to release when it folds. committing marks an
	// edge-driven commit in flight (manual mode only) — it blocks admission
	// exactly as a full buffer does in auto mode, and clears when the fold
	// publishes its snapshot.
	pendMu      sync.Mutex
	pendingIDs  map[int]bool
	pendingN    int
	pendingW    float64
	pendingBufs []*updateBuf
	committing  bool

	// admitted is buffered mode's dedup horizon, replacing pendingIDs: per
	// base round still inside the staleness window, the set of clients whose
	// update for that base was counted — a retry of an already-counted push
	// stays idempotent even across commits. Guarded by pendMu; evicted with
	// the window at each commit.
	admitted map[int]map[int]bool

	// shards partition the parameter vector; bnShard holds the (small)
	// BatchNorm statistics vector whole.
	shards  []shard
	bnShard shard

	// served caches, per (bits, chunk) requested this round, the encoded
	// compressed model body and the dequantized base the clients actually
	// received, each behind a servedEntry: an atomic pointer read lock-free
	// by pulls plus a per-variant single-flight latch held across the build.
	// Building an entry is a pure function of (snapshot, downErr, codec
	// params), so a cache miss recomputes identical bytes. serveMu guards
	// only the variant-map bookkeeping (entry lookup/create, the variant
	// cap, reading downErr, the generation counter) — it never spans
	// O(model) work, so distinct variants build concurrently and a build
	// never stalls an unrelated pull. downErr is the downlink error-feedback
	// residual per codec variant, committed from the served cache when the
	// round advances (see advanceRound). serveGen increments at every
	// snapshot swap; a build publishes only if the generation it started
	// under is still current, so a body built from a retired (snapshot,
	// downErr) pair is discarded instead of served.
	serveMu  sync.Mutex
	served   map[Compression]*servedEntry
	downErr  map[Compression][]float64
	serveGen uint64

	// errFree holds residual vectors that are provably dead — nothing can
	// still read them — for the next builds to write their nextErr into
	// instead of allocating (see advanceRound for the proof obligation).
	// Bounded by maxCodecVariants; guarded by serveMu.
	errFree [][]float64

	// servedRO is the lock-free view of served for the pull fast path: every
	// mutation of the map under serveMu (variant creation is copy-on-write;
	// retire installs a fresh empty map) publishes the new map here, so a
	// current-round pull that finds its variant already built touches no lock
	// at all. A pull racing a round commit may resolve the retiring round's
	// body through the old map — indistinguishable from the pull having
	// arrived a moment earlier, and the window closes at the pointer swap.
	servedRO atomic.Pointer[map[Compression]*servedEntry]

	// buildSegments fixes how many chunk-aligned segments a served-model
	// build encodes concurrently; 0 (the default) tracks GOMAXPROCS. The
	// served bytes are bit-identical at any value (the stitch identity —
	// TestServeSegmentInvariance); tests pin it to cross-check counts.
	buildSegments int

	// headerTimeout, when positive, replaces readHeaderTimeout on the
	// listener Serve starts. Test seam (the production bound is seconds); set
	// before serving, never changed.
	headerTimeout time.Duration

	// buildHook, when non-nil, runs at the start of every served-model
	// build, under the variant's latch but outside serveMu. Test seam for
	// pinning build concurrency; set before serving, never changed.
	buildHook func(Compression)

	// history (buffered mode) retains, per base round still inside the
	// staleness window, the round's immutable snapshot and its served-model
	// cache, so a stale push can be reconstructed against the exact base its
	// client pulled. Guarded by serveMu; evicted with the window at each
	// commit.
	history map[int]*roundState

	// deltaChains holds the delta-downlink state per codec variant that
	// negotiated delta=1 (servedelta.go). deltaMu guards only the map; each
	// chain's own mutex is the single-flight latch across its O(model)
	// advances, so distinct variants advance concurrently. The chains are a
	// separate subsystem from served/downErr on purpose: they advance lazily
	// at pull time from the immutable snapshot, so round transitions never
	// touch them.
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

	// bufferedNow mirrors pendingN as an atomic so tier flush policy and
	// /stats can read the live buffer depth without taking pendMu.
	bufferedNow atomic.Int64

	// oldestAdmit is the admission time (UnixNano) of the oldest update in
	// the current buffer, 0 while it is empty. Recorded at admission so a
	// tier's age-based flush deadline runs from when the update actually
	// buffered, not from when the flusher first looked at the buffer.
	// Written under pendMu, read lock-free by the flusher.
	oldestAdmit atomic.Int64

	// stalenessHist (buffered mode) counts admitted updates per observed
	// staleness 0..maxStale. Atomics, so /stats never contends with
	// admission.
	stalenessHist []atomic.Int64

	// bufPool recycles decoded-update buffers across pushes.
	bufPool sync.Pool

	// wal, when non-nil, is the open write-ahead log (WithWAL /
	// RecoverServer): commits and buffered-mode admissions are logged before
	// they take effect, so a crashed process resumes at its last commit. Set
	// before serving, never changed.
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

	// finite records that no value of params is NaN or ±Inf, proven once at
	// build time. Dequantised codes are finite unless a chunk's maxCode·scale
	// itself overflows (a model value within an ulp of MaxFloat64); the sparse
	// push path relies on it instead of sweeping the base per push.
	finite bool

	// codec and clen are the response's codec-echo and Content-Length header
	// values, formatted once at build time so the pull hot path writes
	// precomputed strings instead of formatting per request.
	codec string
	clen  string
}

// servedEntry is one codec variant's slot in the round's served cache. val
// is the immutable built model, read lock-free; mu is the variant's
// single-flight latch, held across the O(model) build so N racing pulls for
// one variant run exactly one build while pulls for other variants (their
// own entries) and everything on serveMu proceed untouched. Entries are
// created under serveMu and the map is replaced wholesale when the round
// retires, so a live entry's val is always nil or the current round's body.
type servedEntry struct {
	mu  sync.Mutex
	val atomic.Pointer[servedModel]
}

// roundState is one committed round's retained state in buffered mode: the
// immutable snapshot (the base of that round's raw pushes) and the codec
// variants actually served (the bases of its delta pushes).
type roundState struct {
	snap   *snapshot
	served map[Compression]*servedModel
}

// maxCodecVariants bounds how many distinct (bits, chunk) parameter sets
// the server will serve within one round. Each variant costs a few
// model-sized buffers; without a bound, a client cycling through chunk
// values could grow server memory without limit.
const maxCodecVariants = 8

// NewServer creates a parameter server seeded with the initial global model.
// By default the aggregation plane is split into GOMAXPROCS parameter
// shards; WithShards overrides the count. The aggregate is bit-identical at
// any shard count.
func NewServer(initParams, initBN []float64, updatesPerRound int, opts ...ServerOption) *Server {
	if updatesPerRound < 1 {
		panic("fldist: updatesPerRound must be ≥ 1")
	}
	var cfg serverConfig
	for _, o := range opts {
		o(&cfg)
	}
	nShards := resolveShards(cfg.shards, len(initParams))
	s := &Server{
		updatesPerRound: updatesPerRound,
		nShards:         nShards,
		pendingIDs:      map[int]bool{},
		shards:          makeShards(len(initParams), nShards),
		bnShard:         shard{lo: 0, hi: len(initBN)},
		served:          map[Compression]*servedEntry{},
		downErr:         map[Compression][]float64{},
		deltaChains:     map[Compression]*deltaChain{},
	}
	s.setServedLocked(s.served)
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
		s.admitted = map[int]map[int]bool{}
		s.history = map[int]*roundState{}
		s.stalenessHist = make([]atomic.Int64, cfg.maxStale+1)
	}
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
			async:    s.async,
			maxStale: s.maxStale,
			nParams:  len(initParams),
			nBN:      len(initBN),
		}
		if s.async {
			m.quorumOrK = s.bufferK
		} else {
			m.quorumOrK = updatesPerRound
		}
		w, err := createWAL(cfg.walDir, m, cfg.walSync)
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

// Shards returns the number of parameter shards the aggregation plane runs
// under.
func (s *Server) Shards() int { return s.nShards }

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
		// about it rather than silently receive a gob blob it may not
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
	// gob body is written straight out — no per-pull encode, no lock.
	body := s.model.Load().gobBody()
	w.Header().Set("Content-Type", contentTypeGob)
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

// gobBody returns the snapshot's raw-protocol pull body, gob-encoding it on
// first use. sync.Once makes the encode single-flight and the result
// immutable, so a raw pull after the first is one Write of a shared slice.
func (sn *snapshot) gobBody() []byte {
	sn.rawOnce.Do(func() {
		var buf bytes.Buffer
		blob := ModelBlob{Round: sn.round, Params: sn.params, BN: sn.bn}
		if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
			// Plain ints and float64 slices into a bytes.Buffer; unreachable.
			panic(fmt.Sprintf("fldist: encoding model snapshot: %v", err))
		}
		sn.rawBody = buf.Bytes()
	})
	return sn.rawBody
}

// getServed returns (building on first use this round) the compressed pull
// body for the given codec parameters and the exact client-visible base
// values it exposes. wantRound ≥ 0 demands the entry belong to that round —
// the delta-update path uses this so a push never reconstructs against a
// base from a different round; wantRound < 0 accepts the current round.
//
// Parameters are chunk-quantized with downlink error feedback: the residual
// of quantizing the previous round's model at these codec parameters is
// folded in before quantizing, so pull-side compression error cancels over
// rounds instead of re-truncating the model to the quantization grid every
// round. The residual is only *read* here — the new one (nextErr) is
// committed when the round advances — so rebuilding within a round is
// idempotent and every participant sees the same base. The BatchNorm
// statistics travel as a raw frame — they are a few dozen values whose
// distortion (a running variance crushed toward zero) destabilizes
// normalization out of all proportion to the bytes saved.
func (s *Server) getServed(c Compression, wantRound int) (*servedModel, error) {
	// Lock-free fast path: a current-round pull whose variant is already
	// built resolves through the published map view without touching any
	// lock — two atomic loads and it holds the immutable body.
	if wantRound < 0 {
		if e := (*s.servedRO.Load())[c]; e != nil {
			if sm := e.val.Load(); sm != nil {
				return sm, nil
			}
		}
	}
	for {
		s.serveMu.Lock()
		snap := s.model.Load()
		if wantRound >= 0 && snap.round != wantRound {
			// Buffered mode: a delta push may reconstruct against a base up
			// to maxStale rounds old. Its client pulled before pushing, so if
			// the round is still retained, the variant's served entry exists.
			if s.async {
				if rs := s.history[wantRound]; rs != nil {
					if sm := rs.served[c]; sm != nil {
						s.serveMu.Unlock()
						return sm, nil
					}
				}
			}
			s.serveMu.Unlock()
			return nil, errStaleServe
		}
		e, ok := s.served[c]
		if !ok {
			if len(s.served) >= maxCodecVariants {
				s.serveMu.Unlock()
				return nil, fmt.Errorf("fldist: more than %d codec variants in one round", maxCodecVariants)
			}
			e = &servedEntry{}
			next := make(map[Compression]*servedEntry, len(s.served)+1)
			for k, v := range s.served {
				next[k] = v
			}
			next[c] = e
			s.setServedLocked(next)
		}
		if sm := e.val.Load(); sm != nil {
			// Entries never outlive their round (the map is replaced at
			// retire, under this lock), so a published value is current.
			s.serveMu.Unlock()
			return sm, nil
		}
		prevErr := s.downErr[c]
		gen := s.serveGen
		var next []float64
		if k := len(s.errFree); k > 0 {
			next, s.errFree = s.errFree[k-1], s.errFree[:k-1]
		}
		s.serveMu.Unlock()

		// Build outside serveMu, under the variant's own latch: racing pulls
		// for this variant queue here and find val set; pulls for other
		// variants, and everything else on serveMu, never wait on this
		// O(model) work.
		e.mu.Lock()
		if sm := e.val.Load(); sm != nil {
			e.mu.Unlock()
			return sm, nil
		}
		if s.buildHook != nil {
			s.buildHook(c)
		}
		sm := s.buildServed(snap, prevErr, next, c)
		s.servedBuilds.Add(1)
		// Publish only if no snapshot swap happened mid-build: a body built
		// from a retired (snapshot, downErr) pairing must not be served as
		// the new round's state. The stale build is discarded and the loop
		// re-resolves against the current round.
		s.serveMu.Lock()
		fresh := gen == s.serveGen
		if fresh {
			e.val.Store(sm)
		} else {
			// Never published, builder goroutines joined: unreferenced.
			s.recycleErrLocked(sm.nextErr)
		}
		s.serveMu.Unlock()
		e.mu.Unlock()
		if fresh {
			return sm, nil
		}
	}
}

// errStaleServe reports a served-base lookup for a round the server has
// already aggregated past (synchronous mode) or evicted from the staleness
// window (buffered mode). Matched with errors.Is so wrapping stays safe.
var errStaleServe = errors.New("fldist: served base for a stale round")

// baseAt resolves the global snapshot a raw push with the given base round
// trained from: the current model (lock-free — the common case must not
// queue the push fast path behind serveMu, where a concurrent pull may be
// running an O(model) served-cache build), or — in buffered mode — a
// retained round inside the staleness window.
func (s *Server) baseAt(round int) (*snapshot, error) {
	if snap := s.model.Load(); round == snap.round {
		return snap, nil
	}
	s.serveMu.Lock()
	defer s.serveMu.Unlock()
	// Re-read under the lock: the round may have advanced since the
	// lock-free check, moving the wanted snapshot into history.
	if snap := s.model.Load(); round == snap.round {
		return snap, nil
	}
	if rs := s.history[round]; rs != nil {
		return rs.snap, nil
	}
	return nil, errStaleServe
}

// buildServed constructs one codec variant's served model from an immutable
// snapshot, segment-parallel: the frame sizes are closed-form
// (quant.FrameBytes / quant.SegmentBytes), so the exact-size body is
// allocated up front, the envelope and frame headers written in place, and
// each chunk-aligned segment encoded by its own goroutine into its disjoint
// byte range — EF-residual add before the encode and residual fold after it
// both happen per segment, so no pass over the model is serial. The stitch
// identity (quant.EncodeSegmentInto doc, TestSegmentStitchGoldenBytes) makes
// the result byte-identical to the sequential EncodeStream build at any
// segment count and GOMAXPROCS; TestServeSegmentInvariance pins that end to
// end.
func (s *Server) buildServed(snap *snapshot, prevErr, next []float64, c Compression) *servedModel {
	n := len(snap.params)
	sm := &servedModel{
		round:  snap.round,
		params: make([]float64, n),
		bn:     snap.bn, // immutable snapshot slice — safe to share
	}
	if len(next) != n {
		next = make([]float64, n)
	}
	bnFrame := quant.EncodeRaw(snap.bn)
	body := make([]byte, 9+quant.FrameBytes(n, c.Chunk, c.Bits)+len(bnFrame))
	copy(body, modelMagic)
	body[4] = envVersion
	binary.LittleEndian.PutUint32(body[5:9], uint32(snap.round))
	if err := quant.PutFrameHeader(body[9:9+quant.FrameHeaderSize], c.Bits, n, c.Chunk); err != nil {
		// c was validated by normalize() and n fits a frame; unreachable.
		panic(fmt.Sprintf("fldist: building served model: %v", err))
	}
	payload := body[9+quant.FrameHeaderSize : len(body)-len(bnFrame)]
	copy(body[len(body)-len(bnFrame):], bnFrame)

	// Per segment: residual add, encode (which writes deq from the code in
	// hand), residual fold with the finiteness verdict on deq riding along.
	// Every element of next, sm.params and payload is overwritten, so a
	// recycled next needs no clearing.
	var nonFinite atomic.Bool
	encodeSegment := func(lo, hi int) {
		v, p := next[lo:hi], snap.params[lo:hi]
		if len(prevErr) == n {
			pe := prevErr[lo:hi]
			for i := range v {
				v[i] = p[i] + pe[i]
			}
		} else {
			copy(v, p)
		}
		blo := quant.SegmentBytes(lo, c.Chunk, c.Bits)
		bhi := quant.SegmentBytes(hi, c.Chunk, c.Bits)
		deq := sm.params[lo:hi]
		if err := quant.EncodeSegmentInto(payload[blo:bhi], v, c.Bits, c.Chunk, deq); err != nil {
			panic(fmt.Sprintf("fldist: building served model: %v", err))
		}
		for i, d := range deq {
			v[i] -= d
			if !isFinite(d) {
				nonFinite.Store(true)
			}
		}
	}
	segs := s.buildSegments
	if segs <= 0 {
		segs = runtime.GOMAXPROCS(0)
	}
	bounds := quant.SegmentBounds(n, c.Chunk, segs)
	if len(bounds) > 2 && runtime.GOMAXPROCS(0) > 1 {
		var wg sync.WaitGroup
		for k := 0; k+2 < len(bounds); k++ {
			lo, hi := bounds[k], bounds[k+1]
			wg.Add(1)
			go func() {
				defer wg.Done()
				encodeSegment(lo, hi)
			}()
		}
		// The last segment runs on the calling goroutine.
		encodeSegment(bounds[len(bounds)-2], bounds[len(bounds)-1])
		wg.Wait()
	} else {
		for k := 0; k+1 < len(bounds); k++ {
			encodeSegment(bounds[k], bounds[k+1])
		}
	}
	sm.finite = !nonFinite.Load()
	sm.nextErr = next
	sm.body = body
	sm.codec = codecValue(c)
	sm.clen = strconv.Itoa(len(body))
	return sm
}

// isFinite reports whether x is neither NaN nor ±Inf, in one comparison (NaN
// fails every ordered comparison).
func isFinite(x float64) bool { return math.Abs(x) <= math.MaxFloat64 }

// allFinite reports whether every value of v is finite.
func allFinite(v []float64) bool {
	for _, x := range v {
		if !isFinite(x) {
			return false
		}
	}
	return true
}

// bodyLimit caps one /update body at a generous multiple of the model size
// so an oversized POST cannot exhaust server memory: the largest legitimate
// body is the raw gob update (~10 bytes per float64 plus framing), well
// under 16 bytes/value.
func bodyLimit(snap *snapshot) int64 {
	return 4096 + 16*int64(len(snap.params)+len(snap.bn))
}

// pushScratch is the pooled per-request machinery of the streaming delta
// path: a byte-counting reader, a buffered reader batching small chunk reads
// off the HTTP body, and two reusable frame decoders. One Get/Put pair per
// push keeps the handler's own allocation count flat.
type pushScratch struct {
	cr countReader
	br *bufio.Reader
	pd quant.StreamDecoder
	bd quant.StreamDecoder
}

var pushScratchPool = sync.Pool{
	New: func() any { return &pushScratch{br: bufio.NewReaderSize(nil, 32<<10)} },
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	//lint:ignore determinism admit-latency stats only; never reaches folded or replayed state
	start := time.Now()
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if r.Header.Get("Content-Type") == contentTypeDelta {
		s.handleDeltaUpdate(w, r, start)
		return
	}
	snap := s.model.Load()
	cr := &countReader{r: http.MaxBytesReader(w, r.Body, bodyLimit(snap))}
	defer func() { s.bytesInRaw.Add(cr.n) }()
	var u Update
	if err := gob.NewDecoder(cr).Decode(&u); err != nil {
		http.Error(w, fmt.Sprintf("bad update: %v", err), http.StatusBadRequest)
		return
	}
	if !s.admissibleRound(w, u.Round, snap) {
		return
	}
	if len(u.Params) != len(snap.params) || len(u.BN) != len(snap.bn) {
		http.Error(w, "shape mismatch", http.StatusBadRequest)
		return
	}
	if err := checkWeight(u.Weight); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !allFinite(u.Params) || !allFinite(u.BN) {
		http.Error(w, "non-finite value in update", http.StatusBadRequest)
		return
	}
	// The gob decoder already allocated the vectors; hand them to the shards
	// directly (no pooled buffer to release).
	buf := &updateBuf{params: u.Params, bn: u.BN}
	if s.async {
		base, err := s.baseAt(u.Round)
		if err != nil {
			s.rejectStale(w, u.Round)
			return
		}
		s.finishUpdateAsync(w, u.ClientID, u.Round, u.Weight, buf, false,
			[]*atomic.Int64{&s.updatesRaw}, base.params, base.bn, start, nil)
		return
	}
	s.finishUpdate(w, u.ClientID, u.Round, u.Weight, buf, false, []*atomic.Int64{&s.updatesRaw}, start)
}

// admissibleRound runs the cheap pre-admission round check of both push
// paths against the lock-free snapshot (the admission registry re-checks
// authoritatively): in synchronous mode the update must carry the current
// round; in buffered mode its base round must sit inside the staleness
// window. A failed check answers 409 and reports false.
func (s *Server) admissibleRound(w http.ResponseWriter, round int, snap *snapshot) bool {
	if s.async {
		if d := snap.round - round; d < 0 || d > s.maxStale {
			s.rejectStale(w, round)
			return false
		}
		return true
	}
	if round != snap.round {
		http.Error(w, fmt.Sprintf("stale round %d, server at %d", round, snap.round),
			http.StatusConflict)
		return false
	}
	return true
}

// rejectStale answers 409 for a buffered-mode push outside the staleness
// window and charges the stale-rejection counter (a client hearing this has
// wasted the training pass).
func (s *Server) rejectStale(w http.ResponseWriter, round int) {
	s.staleRejected.Add(1)
	http.Error(w, fmt.Sprintf("stale round %d, outside the staleness window", round),
		http.StatusConflict)
}

// handleDeltaUpdate accepts a compressed push: quantized deltas that the
// server stream-decodes chunk-by-chunk — O(chunk) transient memory, never
// the whole wire body — and applies to the exact base it served this round
// at the same codec parameters, feeding the reconstructed full vectors into
// the same aggregation path as raw updates.
//
// Unlike the raw path, no MaxBytesReader is needed: every read is
// closed-form bounded before it happens — the fixed 21-byte envelope header,
// two 14-byte frame headers, and chunk payloads whose sizes follow from the
// frame's value count, which is validated against the model shape before any
// payload byte is read. A body longer than its frames fails the trailing-
// bytes probe with 400; the excess is never buffered.
func (s *Server) handleDeltaUpdate(w http.ResponseWriter, r *http.Request, start time.Time) {
	snap := s.model.Load()
	sc := pushScratchPool.Get().(*pushScratch)
	sc.cr = countReader{r: r.Body}
	sparse := false // set once the params frame turns out to be sparse
	defer func() {
		s.bytesInComp.Add(sc.cr.n)
		if sparse {
			s.bytesInSparse.Add(sc.cr.n)
		}
		sc.br.Reset(nil) // drop the request body reference before pooling
		pushScratchPool.Put(sc)
	}()

	// The envelope header is read straight off the body, not through the
	// buffered reader: with a WAL attached the frame bytes after it are teed
	// into the admission capture, and the tee must see every byte the
	// decoders consume — bufio read-ahead that started before the tee would
	// smuggle frame bytes past it.
	var hdr [21]byte
	if _, err := io.ReadFull(&sc.cr, hdr[:]); err != nil {
		http.Error(w, fmt.Sprintf("fldist: update envelope header: %v", err), http.StatusBadRequest)
		return
	}
	if string(hdr[:4]) != updateMagic {
		http.Error(w, fmt.Sprintf("fldist: update envelope magic %q", hdr[:4]), http.StatusBadRequest)
		return
	}
	if hdr[4] != envVersion {
		http.Error(w, fmt.Sprintf("fldist: update envelope version %d, want %d", hdr[4], envVersion),
			http.StatusBadRequest)
		return
	}
	clientID := int(binary.LittleEndian.Uint32(hdr[5:9]))
	round := int(binary.LittleEndian.Uint32(hdr[9:13]))
	weight := math.Float64frombits(binary.LittleEndian.Uint64(hdr[13:21]))
	if !s.admissibleRound(w, round, snap) {
		return
	}
	if err := checkWeight(weight); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// With a WAL attached, tee the rest of the body — the wire frames,
	// verbatim — into a pooled admission capture as the decoders stream it:
	// the log's frame-form record replays them through this same handler
	// arithmetic on recovery (recover.go). ~50µs of memcpy for an 8-bit
	// frame, against the ~ms of delta capture and raw-frame encode the
	// delta-form record would cost on the same push. Speculative: rejected
	// pushes release the capture unwritten.
	// A delta-downlink client (codec negotiated with delta=1) declares its
	// codec on the push too: its training base is a chain entry in the
	// per-round base registry (servedelta.go), not a served model. Those
	// admissions skip the verbatim frame tee below — the chain is not
	// persisted across restarts, so with a WAL attached they are captured in
	// delta form instead (finishUpdateAsync), which replays without a base.
	pushComp, _, pushNeg, err := parseCodec(r.Header.Get(codecHeader))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	deltaPush := pushNeg && pushComp.Delta

	var wrec *walAdmit
	src := io.Reader(&sc.cr)
	if s.async && s.wal != nil && !deltaPush {
		wrec = s.wal.newAdmit()
		defer func() {
			if wrec != nil {
				s.wal.releaseAdmit(wrec)
			}
		}()
		src = io.TeeReader(src, appendWriter{&wrec.frames})
	}
	sc.br.Reset(src)
	br := sc.br

	dec := &sc.pd
	if err := dec.Reset(br); err != nil {
		http.Error(w, fmt.Sprintf("fldist: update params frame: %v", err), http.StatusBadRequest)
		return
	}
	if dec.IsRaw() {
		http.Error(w, "fldist: delta update must carry a quantized params frame", http.StatusBadRequest)
		return
	}
	comp, err := Compression{Bits: dec.Bits(), Chunk: dec.Chunk()}.normalize()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if dec.Len() != len(snap.params) {
		http.Error(w, "shape mismatch", http.StatusBadRequest)
		return
	}
	// The base the client trained from: for a delta-mode client, the chain
	// entry at its held round (the per-round base registry, servedelta.go);
	// otherwise the base round's served dequantized model at the same codec
	// parameters — deterministic, so recomputing on a cache miss yields the
	// same values (buffered mode looks the entry up in the retained window
	// instead).
	var baseP, baseBN []float64
	var baseFinite bool
	if deltaPush {
		e, ok := s.deltaBaseAt(pushComp, round)
		if !ok {
			// No chain (the server restarted) or the round fell out of the
			// window: the client must re-pull — landing cold on the fresh
			// chain — and retrain.
			if s.async {
				s.rejectStale(w, round)
				return
			}
			http.Error(w, fmt.Sprintf("stale round %d", round), http.StatusConflict)
			return
		}
		baseP, baseBN, baseFinite = e.baseP, e.baseBN, e.finite
	} else {
		sm, err := s.getServed(comp, round)
		if errors.Is(err, errStaleServe) {
			if s.async {
				s.rejectStale(w, round)
				return
			}
			http.Error(w, fmt.Sprintf("stale round %d", round), http.StatusConflict)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		baseP, baseBN, baseFinite = sm.params, sm.bn, sm.finite
	}

	buf := s.bufPool.Get().(*updateBuf)
	if dec.IsSparse() {
		// Sparse top-k frame: every unsent coordinate is exactly zero delta,
		// so reconstruction copies the base and scatter-adds the k stored
		// values. Finiteness costs O(k), not O(n): the base was proven finite
		// when it was built (servedModel.finite, deltaEntry.finite), so the
		// reconstruction can only be non-finite at a coordinate the frame
		// writes — a wire scale can be hostile — and ApplySparse rejects a
		// non-finite sum there.
		sparse = true
		if !baseFinite {
			s.bufPool.Put(buf)
			http.Error(w, "non-finite value in update", http.StatusBadRequest)
			return
		}
		copy(buf.params, baseP)
		if err := dec.ApplySparse(buf.params); err != nil {
			s.bufPool.Put(buf)
			http.Error(w, fmt.Sprintf("fldist: update params frame: %v", err), http.StatusBadRequest)
			return
		}
	} else {
		// Stream the dense delta chunks into the pooled buffer,
		// reconstructing base+delta and rejecting non-finite results as each
		// chunk lands.
		off := 0
		for l := dec.NextLen(); l > 0; l = dec.NextLen() {
			dst := buf.params[off : off+l]
			if err := dec.Next(dst); err != nil {
				s.bufPool.Put(buf)
				http.Error(w, fmt.Sprintf("fldist: update params frame: %v", err), http.StatusBadRequest)
				return
			}
			base := baseP[off : off+l]
			for i := range dst {
				v := dst[i] + base[i]
				if !isFinite(v) {
					s.bufPool.Put(buf)
					http.Error(w, "non-finite value in update", http.StatusBadRequest)
					return
				}
				dst[i] = v
			}
			off += l
		}
	}

	bnDec := &sc.bd
	if err := bnDec.Reset(br); err != nil {
		s.bufPool.Put(buf)
		http.Error(w, fmt.Sprintf("fldist: update bn frame: %v", err), http.StatusBadRequest)
		return
	}
	if bnDec.Len() != len(snap.bn) {
		s.bufPool.Put(buf)
		http.Error(w, "shape mismatch", http.StatusBadRequest)
		return
	}
	if err := bnDec.DecodeAll(buf.bn); err != nil {
		s.bufPool.Put(buf)
		http.Error(w, fmt.Sprintf("fldist: update bn frame: %v", err), http.StatusBadRequest)
		return
	}
	for i := range buf.bn {
		v := buf.bn[i] + baseBN[i]
		if !isFinite(v) {
			s.bufPool.Put(buf)
			http.Error(w, "non-finite value in update", http.StatusBadRequest)
			return
		}
		buf.bn[i] = v
	}
	if _, err := br.ReadByte(); err != io.EOF {
		s.bufPool.Put(buf)
		http.Error(w, "fldist: update envelope has trailing bytes", http.StatusBadRequest)
		return
	}
	// Per-form attribution: a sparse push charges the sparse series on top
	// of the compressed total, so /stats can split traffic by frame form.
	counters := []*atomic.Int64{&s.updatesComp}
	if sparse {
		counters = append(counters, &s.updatesSparse)
	}
	if s.async {
		rec := wrec
		wrec = nil // ownership passes; finishUpdateAsync releases on rejection
		s.finishUpdateAsync(w, clientID, round, weight, buf, true, counters,
			baseP, baseBN, start, rec)
		return
	}
	s.finishUpdate(w, clientID, round, weight, buf, true, counters, start)
}

// appendWriter is the tee target of the delta handler's WAL capture: an
// io.Writer appending into a pooled byte slice.
type appendWriter struct{ b *[]byte }

func (w appendWriter) Write(p []byte) (int, error) {
	*w.b = append(*w.b, p...)
	return len(p), nil
}

// checkWeight rejects non-positive and non-finite FedAvg weights. NaN
// compares false to everything, so `weight > 0` (not `<= 0`) is the shape of
// the check; one poisoned weight would corrupt the weighted average for
// every client with no recovery.
func checkWeight(w float64) error {
	if !(w > 0) || math.IsInf(w, 0) {
		return fmt.Errorf("weight must be a positive finite value")
	}
	return nil
}

// registerOutcome is the admission registry's verdict on one decoded update.
type registerOutcome int

const (
	regAdmitted     registerOutcome = iota
	regAdmittedLast                 // admitted, and this update filled the quorum
	regDuplicate
	regStale
	regQuorumFull // quorum filled, fold in flight: stale once the round advances
	regBufferFull // manual mode: admission cap reached, flusher behind — retryable, nothing to wait out
)

// register runs the small global critical section of the push path: the
// round check, the duplicate check, and the quorum count, then parks the
// decoded vectors in the shards' pending lists (O(shards) pointer appends).
// The model-sized work — decode, dequantize, base reconstruction,
// finiteness — happened before this call, outside any lock. pooled marks
// buffers leased from bufPool (released after the fold).
func (s *Server) register(clientID, round int, weight float64, buf *updateBuf, pooled bool) registerOutcome {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	snap := s.model.Load()
	if round != snap.round {
		return regStale
	}
	if s.pendingIDs[clientID] {
		s.duplicatesDropped.Add(1)
		return regDuplicate
	}
	if s.pendingN >= s.updatesPerRound {
		// Quorum already reached; the filling update's handler is folding
		// the round right now. This update is stale, but the caller waits
		// out the fold before answering so the 409 is only observable once
		// /round reports the new round — a straggler that immediately
		// re-pulls gets the fresh model, never a wasted training cycle on
		// the old one (matching the pre-shard server, whose mutex provided
		// the same ordering).
		return regQuorumFull
	}
	s.pendingIDs[clientID] = true
	s.pendingN++
	if pooled {
		s.pendingBufs = append(s.pendingBufs, buf)
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.add(contrib{clientID: clientID, weight: weight, vals: buf.params[sh.lo:sh.hi]})
	}
	s.bnShard.add(contrib{clientID: clientID, weight: weight, vals: buf.bn})
	if s.pendingN == s.updatesPerRound {
		return regAdmittedLast
	}
	return regAdmitted
}

// finishUpdate runs the transport-independent tail of both push paths:
// admission, stats attribution, the round-advance barrier when the quorum
// fills, and the HTTP verdict. pooled marks buffers leased from bufPool;
// they are returned here on the non-admitted outcomes and by advanceRound
// after the fold otherwise. counters attribute the update to its /stats
// series (the compressed total plus, for a sparse push, the sparse subset),
// charged only once the update actually counts toward the round.
func (s *Server) finishUpdate(w http.ResponseWriter, clientID, round int, weight float64,
	buf *updateBuf, pooled bool, counters []*atomic.Int64, start time.Time) {
	outcome := s.register(clientID, round, weight, buf, pooled)
	switch outcome {
	case regStale, regQuorumFull:
		if pooled {
			s.bufPool.Put(buf)
		}
		if outcome == regQuorumFull {
			s.awaitRoundAdvance(round)
		}
		http.Error(w, fmt.Sprintf("stale round %d", round), http.StatusConflict)
		return
	case regDuplicate:
		// Retry of an already-counted update (e.g. the client timed out
		// waiting for a slow 200). Acknowledge without re-counting so the
		// FedAvg weights stay correct and the client moves on.
		if pooled {
			s.bufPool.Put(buf)
		}
		w.Header().Set("X-Fldist-Duplicate", "1")
		w.WriteHeader(http.StatusOK)
		return
	}
	for _, ctr := range counters {
		ctr.Add(1)
	}
	//lint:ignore determinism latency histogram only; /stats is observability, not state
	s.admitLat.record(time.Since(start))
	if outcome == regAdmittedLast {
		s.advanceRound()
	}
	w.WriteHeader(http.StatusOK)
}

// registerAsync is buffered mode's admission registry: the authoritative
// staleness-window check, the per-(baseRound, client) duplicate check, the
// buffer count, and the shard appends, all under pendMu. The contribution's
// effective weight is discounted here — weight/(1+staleness) — with the
// staleness the registry observes, which is stable until the next commit.
// baseP/baseBN are the exact base vectors the update trained from (retained
// snapshot or served model — immutable either way); each shard keeps its
// range of them so the commit can fold the update as a delta. It returns the
// outcome plus the round the registry observed, so a quorum-full caller can
// wait out the in-flight commit and retry. wrec, when non-nil, is the
// update's WAL capture (delta already computed by the caller, outside any
// lock): on admission its sequence number is reserved here — inside pendMu,
// where logical order is decided, so the log's file order matches admission
// order — along with the observed round and effective weight.
func (s *Server) registerAsync(clientID, baseRound int, weight float64, buf *updateBuf,
	pooled bool, baseP, baseBN []float64, wrec *walAdmit) (registerOutcome, int) {
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
	if s.committing || (!s.manual && s.pendingN >= s.bufferK) {
		// A commit is folding right now: the buffer filled (auto mode) or the
		// edge's flusher froze it (manual mode). Unlike the synchronous
		// server this is not a terminal verdict — the update may still be
		// inside the next round's staleness window, so the caller waits out
		// the commit and re-registers. Manual mode never fills-and-folds on
		// the admission path, so the bufferK threshold does not gate it —
		// manualCap below does, so a wedged flusher cannot let admissions
		// buffer without bound.
		return regQuorumFull, snap.round
	}
	if s.manual && s.manualCap > 0 && s.pendingN >= s.manualCap {
		// Only the flusher drains a manual-mode buffer, and it is behind —
		// wedged against an unreachable upstream, or mid-resync. No commit
		// is in flight to wait out, so the caller answers the retryable
		// verdict immediately instead of spinning.
		return regBufferFull, snap.round
	}
	set := s.admitted[baseRound]
	if set == nil {
		set = map[int]bool{}
		s.admitted[baseRound] = set
	}
	set[clientID] = true
	s.pendingN++
	if s.pendingN == 1 {
		//lint:ignore determinism admission age clock paces edge flushes; folded bytes are unaffected
		s.oldestAdmit.Store(time.Now().UnixNano())
	}
	if pooled {
		s.pendingBufs = append(s.pendingBufs, buf)
	}
	effW := weight / float64(1+stale)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.add(contrib{clientID: clientID, baseRound: baseRound, weight: effW,
			vals: buf.params[sh.lo:sh.hi], base: baseP[sh.lo:sh.hi]})
	}
	s.bnShard.add(contrib{clientID: clientID, baseRound: baseRound, weight: effW,
		vals: buf.bn, base: baseBN})
	s.pendingW += effW
	s.bufferedNow.Add(1)
	s.stalenessHist[stale].Add(1)
	if wrec != nil {
		wrec.seq = s.wal.reserve()
		wrec.admitRound = snap.round
		wrec.effW = effW
	}
	if !s.manual && s.pendingN == s.bufferK {
		return regAdmittedLast, snap.round
	}
	return regAdmitted, snap.round
}

// finishUpdateAsync is buffered mode's counterpart of finishUpdate:
// admission with the staleness window, the commit barrier when the buffer
// fills, and the HTTP verdict. A registration racing an in-flight commit
// waits the commit out and retries — the update may still be admissible one
// round later — instead of answering a premature 409.
func (s *Server) finishUpdateAsync(w http.ResponseWriter, clientID, baseRound int, weight float64,
	buf *updateBuf, pooled bool, counters []*atomic.Int64, baseP, baseBN []float64, start time.Time,
	wrec *walAdmit) {
	// With a WAL attached and no wire-frame capture teed off by the caller
	// (the raw-gob path has no frames to tee), capture the update's delta
	// against its base here — outside every lock, while this handler still
	// owns buf — so the log can replay the contribution bit-identically as
	// (delta, zero base): the fold only ever consumes weight·(vals−base),
	// and vals−0 ≡ delta. Speculative on the rare non-admitted outcomes; the
	// capture is pooled either way.
	if s.wal != nil && wrec == nil {
		wrec = s.wal.newAdmit()
		if wrec.dp == nil {
			wrec.dp = make([]float64, len(baseP))
			wrec.db = make([]float64, len(baseBN))
		}
		subVec(wrec.dp, buf.params, baseP)
		subVec(wrec.db, buf.bn, baseBN)
	}
	if wrec != nil {
		wrec.clientID = clientID
		wrec.baseRound = baseRound
		wrec.comp = pooled
	}
	for {
		outcome, observed := s.registerAsync(clientID, baseRound, weight, buf, pooled, baseP, baseBN, wrec)
		switch outcome {
		case regQuorumFull:
			s.awaitRoundAdvance(observed)
			if s.model.Load().round == observed {
				// The commit never landed within the deadline; fail the push
				// rather than spin. This is a server-side stall, not a
				// staleness-window violation: the update may be perfectly
				// fresh, so staleRejected is not charged and the retry
				// header tells the client to re-push the same body instead
				// of discarding the training pass.
				if pooled {
					s.bufPool.Put(buf)
				}
				if wrec != nil {
					s.wal.releaseAdmit(wrec)
				}
				w.Header().Set(retryHeader, "1")
				http.Error(w, fmt.Sprintf("round %d commit still in flight, retry", observed),
					http.StatusConflict)
				return
			}
			continue
		case regStale:
			if pooled {
				s.bufPool.Put(buf)
			}
			if wrec != nil {
				s.wal.releaseAdmit(wrec)
			}
			s.rejectStale(w, baseRound)
			return
		case regBufferFull:
			// Not a staleness verdict (staleRejected stays uncharged): the
			// buffer is full because the tier's flusher is behind. The retry
			// header tells the client to re-push the same body later instead
			// of discarding the training pass.
			if pooled {
				s.bufPool.Put(buf)
			}
			if wrec != nil {
				s.wal.releaseAdmit(wrec)
			}
			w.Header().Set(retryHeader, "1")
			http.Error(w, "update buffer full, retry", http.StatusConflict)
			return
		case regDuplicate:
			if pooled {
				s.bufPool.Put(buf)
			}
			if wrec != nil {
				s.wal.releaseAdmit(wrec)
			}
			w.Header().Set("X-Fldist-Duplicate", "1")
			w.WriteHeader(http.StatusOK)
			return
		}
		for _, ctr := range counters {
			ctr.Add(1)
		}
		//lint:ignore determinism latency histogram only; /stats is observability, not state
		s.admitLat.record(time.Since(start))
		if wrec != nil {
			// Write this admission's record before a possible commit: the
			// commit record's ordered append waits for every earlier
			// sequence number, ours included, and this goroutine is the one
			// that runs the commit below.
			_ = s.wal.appendAdmit(wrec) // failure warns once and sticks; serving continues
		}
		if outcome == regAdmittedLast {
			s.commitBuffer()
		}
		if s.manual {
			s.signalFlush()
		}
		w.WriteHeader(http.StatusOK)
		return
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

// advanceRound is the round barrier: it folds every shard's pending
// contributions into a fresh snapshot (shards fold concurrently, each under
// its own lock, each in clientID order — see shard.foldInto for the
// determinism argument), commits the downlink error-feedback residuals of
// the codec variants served this round, publishes the new snapshot, and
// resets the admission registry. Only the handler whose update filled the
// quorum runs this; concurrent registrations observe either the full old
// round (and get 409) or the fresh empty one.
func (s *Server) advanceRound() {
	old := s.model.Load()
	next := &snapshot{
		round:  old.round + 1,
		params: make([]float64, len(old.params)),
		bn:     make([]float64, len(old.bn)),
	}
	s.foldShards(
		func(sh *shard) { sh.foldInto(next.params) },
		func() { s.bnShard.foldInto(next.bn) },
	)

	// Commit the downlink error-feedback residuals of the codec variants
	// actually served this round (bounded by maxCodecVariants), replacing
	// last round's state, and drop the round's served cache. The snapshot
	// swap happens inside both serveMu and pendMu so cache builders and
	// update registrations each observe a consistent round; the generation
	// bump voids any build still in flight against the old state.
	//
	// The residual a variant's build consumed this round dies here: a map
	// entry is only ever read by builds that started under the generation it
	// was installed for (getServed takes residual and generation in one
	// critical section, and this function replaces the map wholesale at every
	// bump), those builds are single-flight under the variant's latch, and
	// c ∈ served means the one that ran has published — every later arrival
	// finds val set and never builds. The WAL serialised it synchronously
	// under this lock a round ago. So it is recycled as a future nextErr; a
	// variant whose build is still in flight is not in served and its residual
	// is left to the garbage collector. Bodies and params are never recycled:
	// a pull handler may be mid-Write on a retired round's body.
	s.serveMu.Lock()
	served := s.collectServedLocked(old.round)
	downErr := make(map[Compression][]float64, len(served))
	for c, sm := range served {
		downErr[c] = sm.nextErr
		s.recycleErrLocked(s.downErr[c])
	}
	s.downErr = downErr
	s.setServedLocked(map[Compression]*servedEntry{})
	s.serveGen++

	s.pendMu.Lock()
	if s.wal != nil {
		s.logCommitLocked(next)
	}
	s.model.Store(next)
	clear(s.pendingIDs)
	s.resetPendingLocked()
	s.pendMu.Unlock()
	s.serveMu.Unlock()

	s.roundsCompleted.Add(1)
}

// logCommitLocked appends the commit record — the new snapshot plus the
// downlink error-feedback residual of every codec variant carried forward —
// to the WAL, before the snapshot is published: log-then-publish is what
// makes a served round always recoverable. Caller holds serveMu and pendMu
// (the reservation under pendMu orders the record after every admission it
// folded; the record's fsync seals them all). A write failure warns once and
// degrades the server to in-memory durability; it never blocks the commit.
func (s *Server) logCommitLocked(next *snapshot) {
	c := walCommit{round: next.round, params: next.params, bn: next.bn}
	for comp, res := range s.downErr {
		c.downErr = append(c.downErr, walVariantErr{comp: comp, residual: res})
	}
	// The record must be byte-identical across runs for replay to reconverge;
	// map iteration order is not.
	sort.Slice(c.downErr, func(i, j int) bool {
		return c.downErr[i].comp.less(c.downErr[j].comp)
	})
	_ = s.wal.appendCommit(s.wal.reserve(), c)
}

// recycleErrLocked offers a dead residual vector to later builds. Caller holds
// serveMu and owes the proof that nothing can still read it.
func (s *Server) recycleErrLocked(v []float64) {
	if v != nil && len(s.errFree) < maxCodecVariants {
		s.errFree = append(s.errFree, v)
	}
}

// subVec writes a−b into dst, element-wise.
func subVec(dst, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// collectServedLocked gathers the codec variants actually built for the
// given round out of the entry map — an entry whose build is still in
// flight (val unset) has served nobody and is skipped; the generation bump
// at retire makes that build discard itself. Caller holds serveMu.
func (s *Server) collectServedLocked(round int) map[Compression]*servedModel {
	out := make(map[Compression]*servedModel, len(s.served))
	for c, e := range s.served {
		if sm := e.val.Load(); sm != nil && sm.round == round {
			out[c] = sm
		}
	}
	return out
}

// retireRoundLocked is the serve-plane half of a buffered-mode round
// transition, shared by commitBuffer and the edge tier's adopt: it advances
// the downlink error-feedback chain of the variants served in the retiring
// round (variants that skipped the round — buffered commits can outpace a
// slow puller — keep their previous residual instead of losing the chain;
// if that ever grows the map past the per-round variant bound, the unserved
// entries are the ones dropped), retains the retiring round's snapshot and
// served cache for stale-push reconstruction, evicts rounds that fell out
// of the staleness window, resets the served map, and voids in-flight
// builds via the generation bump. Caller holds serveMu.
func (s *Server) retireRoundLocked(old *snapshot, nextRound int) {
	served := s.collectServedLocked(old.round)
	for c, sm := range served {
		s.downErr[c] = sm.nextErr
	}
	if len(s.downErr) > maxCodecVariants {
		for c := range s.downErr {
			if _, ok := served[c]; !ok {
				delete(s.downErr, c)
			}
		}
	}
	s.history[old.round] = &roundState{snap: old, served: served}
	for r := range s.history {
		if r < nextRound-s.maxStale {
			delete(s.history, r)
		}
	}
	s.setServedLocked(map[Compression]*servedEntry{})
	s.serveGen++
}

// setServedLocked replaces the served-variant map and publishes the new map
// to the lock-free reader view. Caller holds serveMu; the map passed in must
// never be mutated afterwards — readers hold it without a lock.
func (s *Server) setServedLocked(m map[Compression]*servedEntry) {
	s.served = m
	s.servedRO.Store(&m)
}

// foldShards runs fold over every parameter shard — concurrently when the
// runtime can actually parallelize; on a single-P runtime the goroutine
// fan-out is pure overhead and an inline loop produces the same
// (order-independent) result — with the small BN fold on the calling
// goroutine either way.
func (s *Server) foldShards(fold func(*shard), foldBN func()) {
	if len(s.shards) > 1 && runtime.GOMAXPROCS(0) > 1 {
		var wg sync.WaitGroup
		for i := range s.shards {
			sh := &s.shards[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				fold(sh)
			}()
		}
		foldBN()
		wg.Wait()
	} else {
		for i := range s.shards {
			fold(&s.shards[i])
		}
		foldBN()
	}
}

// resetPendingLocked recycles the folded round's pooled update buffers into
// bufPool and zeroes the buffer count, its weight sum, and the in-flight
// commit mark. Caller holds pendMu, and the fold must already have drained
// the shards' references to these buffers; truncating keeps the slice's
// capacity for the next round's appends.
func (s *Server) resetPendingLocked() {
	s.pendingN = 0
	s.pendingW = 0
	s.committing = false
	s.bufferedNow.Store(0)
	s.oldestAdmit.Store(0)
	for i, b := range s.pendingBufs {
		s.bufPool.Put(b)
		s.pendingBufs[i] = nil
	}
	s.pendingBufs = s.pendingBufs[:0]
}

// commitBuffer is buffered mode's round barrier: it folds the bufferK
// buffered contributions — each a staleness-discounted delta against its own
// base round — onto the current model (shards fold concurrently, each in
// (baseRound, clientID) order; see shard.foldAsyncInto for the determinism
// argument), retains the committed round's snapshot and served cache for the
// staleness window, evicts state that fell out of the window, and publishes
// the new snapshot. Only the handler whose update filled the buffer runs
// this; racing registrations observe either the full old buffer (and wait
// the commit out) or the fresh empty one.
func (s *Server) commitBuffer() {
	old := s.model.Load()
	next := &snapshot{
		round:  old.round + 1,
		params: make([]float64, len(old.params)),
		bn:     make([]float64, len(old.bn)),
	}
	s.foldShards(
		func(sh *shard) { sh.foldAsyncInto(next.params, old.params) },
		func() { s.bnShard.foldAsyncInto(next.bn, old.bn) },
	)

	s.serveMu.Lock()
	s.retireRoundLocked(old, next.round)

	s.pendMu.Lock()
	if s.wal != nil {
		s.logCommitLocked(next)
	}
	s.model.Store(next)
	for r := range s.admitted {
		if r < next.round-s.maxStale {
			delete(s.admitted, r)
		}
	}
	s.resetPendingLocked()
	s.pendMu.Unlock()
	s.serveMu.Unlock()

	s.roundsCompleted.Add(1)
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
		Shards:             s.nShards,
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

// NewHTTPServer returns the http.Server the tiers serve h on: the slow-peer
// bounds above and nothing else set. Server.Serve, Edge.Serve and cmd/fldist's
// edge registry all listen through it.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// ListenAndServe runs the parameter server on addr until ctx is canceled,
// then shuts the HTTP server down gracefully (in-flight pulls and pushes
// finish; new connections are refused). It returns nil on a clean
// ctx-triggered shutdown.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("fldist: listen: %w", err)
	}
	return s.Serve(ctx, ln)
}

// Serve runs the parameter server on an existing listener until ctx is
// canceled, then shuts down gracefully. The listener is closed on return,
// and so is the server (Close — the WAL is released for a successor).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	defer s.Close()
	hs := NewHTTPServer(s.Handler())
	if s.headerTimeout > 0 {
		hs.ReadHeaderTimeout = s.headerTimeout
	}
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

// Close releases the server's durable resources (the WAL and its lock — the
// handoff signal for a waiting successor) and accounts for what a stop at
// this instant abandons: a non-empty admission buffer is work clients
// already got a 200 for. With a WAL in buffered mode every such update is in
// the log and RecoverServer replays it; in every other configuration the
// buffered state dies with the process and the close warns with the count,
// so operators can tell a clean drain from a lossy stop. Serve calls Close
// on the way out; call it directly when the handlers are mounted on an
// external mux. Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.pendMu.Lock()
		n := s.pendingN
		s.pendMu.Unlock()
		if n > 0 {
			switch {
			case s.wal != nil && s.async:
				logged := s.wal.uncommitted.Load()
				if logged == int64(n) {
					s.warn("fldist: closing with %d buffered update(s) uncommitted — all logged; RecoverServer replays them", n)
				} else {
					s.warn("fldist: closing with %d buffered update(s) uncommitted but only %d in the WAL (write failures?) — the missing ones are lost; their clients must re-push", n, logged)
				}
			case s.wal != nil:
				s.warn("fldist: closing with %d update(s) of an unfilled quorum — sync mode logs commits only; their clients must re-push after recovery", n)
			default:
				s.warn("fldist: closing with %d buffered update(s) pending and no WAL — they are lost; their clients must re-push", n)
			}
		}
		if s.wal != nil {
			s.closeErr = s.wal.Close()
		}
	})
	return s.closeErr
}
