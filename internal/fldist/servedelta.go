package fldist

// The delta-downlink serve plane: per codec variant negotiated with delta=1,
// the server keeps a quantized, error-fed chain of global-model deltas so a
// returning client that declares the round it already holds pulls only the
// frames that move it from that round to the head — not the whole model.
//
// The chain is its own subsystem beside the dense served cache: a
// deltaChain per variant, advanced lazily at pull time from the immutable
// model snapshot. Each advance quantizes (model − chainBase + err) — top-k
// sparse when the variant negotiated topk, dense otherwise — appends the
// frames as a deltaEntry, and folds the reconstruction error into err, the
// downlink error-feedback residual that keeps the chain base tracking the
// true model over rounds instead of drifting on the quantization grid. The
// entry also records the post-delta chain base vectors: the per-round base
// registry the push path resolves a delta-mode client's training base from.
// BatchNorm statistics ride the same chain as their own dense 8-bit
// error-fed frames (bnDeltaBits) — raw BN would dominate the byte budget of
// a top-k pull out of all proportion to its 56 values.
//
// Because an advance is a pure function of (chain state, snapshot), it is
// deterministic regardless of which client's pull triggers it, and every
// client of the variant reconstructs bit-identical chain-base vectors — the
// invariant the push path's base lookup depends on. Entries older than the
// serve window are evicted; a client holding an evicted round falls back to
// a cold pull (the chain head, raw) and rejoins the chain from there.

import (
	"encoding/binary"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"fedprophet/internal/quant"
)

// bnDeltaBits is the fixed dense quantization width of the BatchNorm frames
// on a delta chain. 8 bits keeps the running statistics' distortion inside
// what their own error-feedback chain absorbs while cutting their bytes 8×.
const bnDeltaBits = 8

// deltaWindowSync is the catch-up depth of a delta chain in synchronous
// mode, where no staleness window exists to derive one from: a client more
// than this many rounds behind the chain head re-pulls cold. Buffered mode
// uses maxStale instead, so every admissible push round stays resolvable.
const deltaWindowSync = 8

// deltaHeaderSize is the fixed FPD1 catch-up envelope prefix: magic,
// version, from-round, to-round, entry count.
const deltaHeaderSize = 4 + 1 + 4 + 4 + 4

// deltaEntry is one link of a variant's delta chain. pFrame/bnFrame are the
// quantized delta frames that move a client from prevRound's chain base to
// this round's; both are nil on the chain-origin entry, which exists only to
// seed the base registry. baseP/baseBN are the chain base *after* this
// round's delta — the exact vectors a client holding this round reconstructs
// — immutable once the entry is appended, so the push path may hold them
// outside the chain lock. finite records, proven once when the entry is
// appended, that baseP holds no NaN or ±Inf (the origin copies the model,
// later bases add dequantised deltas: finite unless the model itself has
// overflowed) — what the sparse push path relies on instead of sweeping the
// base per push.
type deltaEntry struct {
	round     int
	prevRound int // -1 on the chain origin
	pFrame    []byte
	bnFrame   []byte
	baseP     []float64
	baseBN    []float64
	finite    bool
}

// deltaChain is one delta-mode codec variant's downlink state. mu is the
// variant's single-flight latch, held across the O(model) chain advance the
// same way a servedEntry's latch is held across its build: racing pulls for
// the variant queue here and find the chain already advanced; pulls for
// other variants never wait. round mirrors entries' head round. errP/errBN
// are the downlink error-feedback residuals. coldBody caches the raw pull
// body of the chain head, invalidated by every advance.
type deltaChain struct {
	mu       sync.Mutex
	round    int
	errP     []float64
	errBN    []float64
	entries  []deltaEntry
	coldBody []byte
	coldCLen string
}

// deltaWindow is how many rounds behind the chain head a delta entry stays
// retained: the staleness window in buffered mode (an admissible push's base
// round must be resolvable), a fixed catch-up depth in synchronous mode.
func (s *Server) deltaWindow() int {
	if s.async {
		return s.maxStale
	}
	return deltaWindowSync
}

// getDeltaChain returns (creating on first use) the chain of a delta-mode
// codec variant. Creation leaves the chain empty — the first pull seeds it
// from the snapshot under the chain's own lock — so deltaMu never spans
// O(model) work. Delta variants have their own instance of the codec-variant
// cap: each chain retains a window of model-sized bases.
func (s *Server) getDeltaChain(c Compression) (*deltaChain, error) {
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	if ch := s.deltaChains[c]; ch != nil {
		return ch, nil
	}
	if len(s.deltaChains) >= maxCodecVariants {
		return nil, fmt.Errorf("fldist: more than %d delta codec variants", maxCodecVariants)
	}
	ch := &deltaChain{}
	s.deltaChains[c] = ch
	return ch, nil
}

// lookupDeltaChain returns the variant's chain if one exists, without
// creating it — the push path's form: a delta-mode push with no chain means
// the client is talking to a server that never served it (a restart), and
// must re-pull rather than conjure a base.
func (s *Server) lookupDeltaChain(c Compression) *deltaChain {
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	return s.deltaChains[c]
}

// deltaBaseAt resolves the chain entry whose base vectors a delta-mode client
// holding the given round trained from — the per-round base registry lookup
// of the push path. The entry's slices are immutable state, safe to use
// after the lock drops. Reports false when the variant has no chain or the
// round fell out of the window (the push is rejected as stale; the client
// re-pulls and retrains).
func (s *Server) deltaBaseAt(c Compression, round int) (deltaEntry, bool) {
	ch := s.lookupDeltaChain(c)
	if ch == nil {
		return deltaEntry{}, false
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	for i := len(ch.entries) - 1; i >= 0; i-- {
		if ch.entries[i].round == round {
			return ch.entries[i], true
		}
	}
	return deltaEntry{}, false
}

// advanceDeltaChainLocked brings the chain to the snapshot's round: seeds an
// empty chain with an origin entry (the exact model — the first cold pull's
// body), or quantizes the movement since the chain head into one new entry.
// One entry covers the whole gap even when several rounds committed between
// pulls — the chain records *observed* states, and the delta to the current
// snapshot is all a catch-up client needs. Caller holds ch.mu.
func (s *Server) advanceDeltaChainLocked(ch *deltaChain, c Compression, snap *snapshot) {
	if len(ch.entries) == 0 {
		ch.entries = append(ch.entries, deltaEntry{
			round:     snap.round,
			prevRound: -1,
			baseP:     append([]float64(nil), snap.params...),
			baseBN:    append([]float64(nil), snap.bn...),
			finite:    allFinite(snap.params),
		})
		ch.round = snap.round
		ch.errP = make([]float64, len(snap.params))
		ch.errBN = make([]float64, len(snap.bn))
		ch.coldBody = nil
		return
	}
	if snap.round <= ch.round {
		return
	}
	lastP := ch.entries[len(ch.entries)-1].baseP
	lastBN := ch.entries[len(ch.entries)-1].baseBN

	// Params: quantize (model − chainBase + err), fold the reconstruction
	// error back into err. Top-k keeps only the largest-magnitude
	// coordinates; everything sparsification drops lands in err and is
	// retried next advance — error feedback absorbs sparsification exactly
	// as it absorbs quantization.
	n := len(snap.params)
	d := make([]float64, n)
	for i := range d {
		d[i] = snap.params[i] - lastP[i] + ch.errP[i]
	}
	newP := append([]float64(nil), lastP...)
	var pFrame []byte
	if c.TopK > 0 {
		idx := quant.TopKIndices(d, c.TopK)
		deq := make([]float64, len(idx))
		pFrame = s.encodeSparseFrame(d, idx, c.Bits, c.Chunk, deq)
		for j, ix := range idx {
			newP[ix] += deq[j]
			d[ix] -= deq[j]
		}
	} else {
		q := quant.QuantizeChunks(d, c.Bits, c.Chunk)
		pFrame = quant.Encode(q)
		deq := q.Dequantize()
		for i := range newP {
			newP[i] += deq[i]
			d[i] -= deq[i]
		}
	}
	ch.errP = d

	db := make([]float64, len(snap.bn))
	for i := range db {
		db[i] = snap.bn[i] - lastBN[i] + ch.errBN[i]
	}
	qb := quant.QuantizeChunks(db, bnDeltaBits, c.Chunk)
	bnFrame := quant.Encode(qb)
	deqb := qb.Dequantize()
	newBN := append([]float64(nil), lastBN...)
	for i := range newBN {
		newBN[i] += deqb[i]
		db[i] -= deqb[i]
	}
	ch.errBN = db

	ch.entries = append(ch.entries, deltaEntry{
		round:     snap.round,
		prevRound: ch.round,
		pFrame:    pFrame,
		bnFrame:   bnFrame,
		baseP:     newP,
		baseBN:    newBN,
		finite:    allFinite(newP),
	})
	ch.round = snap.round
	ch.coldBody = nil

	// Window eviction: drop entries too old to serve a catch-up or resolve
	// a push base, copying to fresh backing so the retained tail does not
	// pin the evicted entries' model-sized base vectors in memory.
	lo := 0
	for lo < len(ch.entries)-1 && ch.entries[lo].round < snap.round-s.deltaWindow() {
		lo++
	}
	if lo > 0 {
		ch.entries = append(ch.entries[:0:0], ch.entries[lo:]...)
	}
}

// encodeSparseFrame builds one sparse FPQ1 frame segment-parallel: the frame
// size is closed-form (quant.SparseFrameBytes), the header and k field are
// written in place, and each chunk-aligned segment's varints and blocks are
// encoded by its own goroutine into disjoint byte ranges of the one buffer.
// The stitch identity (TestSparseSegmentStitchIdentity) makes the bytes
// identical to the sequential quant.EncodeSparse at any segment count and
// GOMAXPROCS. deq, when non-nil, receives the dequantized value per selected
// index — the error-feedback subtraction the caller folds back.
func (s *Server) encodeSparseFrame(v []float64, idx []int, bits, chunk int, deq []float64) []byte {
	n := len(v)
	frame := make([]byte, quant.SparseFrameBytes(idx, chunk, bits))
	if err := quant.PutSparseFrameHeader(frame[:quant.FrameHeaderSize+4], bits, n, chunk, len(idx)); err != nil {
		// bits/chunk validated by normalize(), idx by TopKIndices; unreachable.
		panic(fmt.Sprintf("fldist: building sparse delta frame: %v", err))
	}
	payload := frame[quant.FrameHeaderSize:]
	segsN := s.buildSegments
	if segsN <= 0 {
		segsN = runtime.GOMAXPROCS(0)
	}
	bounds := quant.SegmentBounds(n, chunk, segsN)
	segs := quant.SparseSegments(idx, bounds, chunk, bits)
	encode := func(sg quant.SparseSegment) {
		if err := quant.EncodeSparseSegmentInto(payload, v, idx, sg, bits, chunk, deq); err != nil {
			panic(fmt.Sprintf("fldist: building sparse delta frame: %v", err))
		}
	}
	if len(segs) > 1 && runtime.GOMAXPROCS(0) > 1 {
		var wg sync.WaitGroup
		for k := 0; k+1 < len(segs); k++ {
			sg := segs[k]
			wg.Add(1)
			go func() {
				defer wg.Done()
				encode(sg)
			}()
		}
		// The last segment runs on the calling goroutine.
		encode(segs[len(segs)-1])
		wg.Wait()
	} else {
		for _, sg := range segs {
			encode(sg)
		}
	}
	return frame
}

// appendDeltaHeader appends the FPD1 catch-up envelope prefix.
func appendDeltaHeader(dst []byte, from, to, count int) []byte {
	dst = append(dst, deltaMagic...)
	dst = append(dst, envVersion)
	var b [12]byte
	binary.LittleEndian.PutUint32(b[0:4], uint32(from))
	binary.LittleEndian.PutUint32(b[4:8], uint32(to))
	binary.LittleEndian.PutUint32(b[8:12], uint32(count))
	return append(dst, b[:]...)
}

// catchUpLocked builds the FPD1 body that moves a client from baseR to the
// chain head, or reports nil when the chain cannot serve that jump (baseR
// ahead of, unknown to, or evicted from the chain) and the pull must go
// cold. baseR equal to the head is the empty envelope — the client is
// already current and pays 17 bytes to learn it. The chain is contiguous by
// construction (each entry's prevRound is its predecessor's round), so one
// continuity check at the first served entry covers the whole run. Caller
// holds ch.mu; the returned body is freshly built and immutable.
func (ch *deltaChain) catchUpLocked(baseR int) []byte {
	if baseR == ch.round {
		return appendDeltaHeader(make([]byte, 0, deltaHeaderSize), baseR, ch.round, 0)
	}
	i := 0
	for i < len(ch.entries) && ch.entries[i].round <= baseR {
		i++
	}
	if i == len(ch.entries) || ch.entries[i].prevRound != baseR || ch.entries[i].pFrame == nil {
		return nil
	}
	size := deltaHeaderSize
	for _, e := range ch.entries[i:] {
		size += 4 + len(e.pFrame) + len(e.bnFrame)
	}
	body := appendDeltaHeader(make([]byte, 0, size), baseR, ch.round, len(ch.entries)-i)
	for _, e := range ch.entries[i:] {
		var rb [4]byte
		binary.LittleEndian.PutUint32(rb[:], uint32(e.round))
		body = append(body, rb[:]...)
		body = append(body, e.pFrame...)
		body = append(body, e.bnFrame...)
	}
	return body
}

// coldLocked returns (building and caching on first use per chain head) the
// raw pull body of the chain head: the standard model envelope carrying the
// head's chain-base vectors — not the exact model — so a cold-pulling client
// lands precisely on the chain and every later delta applies bit-exactly.
// Caller holds ch.mu.
func (ch *deltaChain) coldLocked() ([]byte, string) {
	if ch.coldBody == nil {
		head := &ch.entries[len(ch.entries)-1]
		pf := quant.EncodeRaw(head.baseP)
		bf := quant.EncodeRaw(head.baseBN)
		body := make([]byte, 0, 9+len(pf)+len(bf))
		body = append(body, modelMagic...)
		body = append(body, envVersion)
		var rb [4]byte
		binary.LittleEndian.PutUint32(rb[:], uint32(head.round))
		body = append(body, rb[:]...)
		body = append(body, pf...)
		body = append(body, bf...)
		ch.coldBody = body
		ch.coldCLen = strconv.Itoa(len(body))
	}
	return ch.coldBody, ch.coldCLen
}

// handleDeltaModel serves a pull whose codec negotiated delta=1: advance the
// variant's chain to the current snapshot (single-flight, under the chain's
// latch), then answer with the FPD1 catch-up frames when the client's
// declared base round is on the chain, or the cold chain-head body when it
// is not (first pull, evicted round, or post-restart). All bytes count into
// the compressed-out total; the per-form counters split them for /stats.
func (s *Server) handleDeltaModel(w http.ResponseWriter, c Compression, baseR int, start time.Time) {
	ch, err := s.getDeltaChain(c)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	snap := s.model.Load()
	ch.mu.Lock()
	s.advanceDeltaChainLocked(ch, c, snap)
	var body []byte
	var clen string
	delta := false
	if baseR >= 0 {
		if b := ch.catchUpLocked(baseR); b != nil {
			body, clen, delta = b, strconv.Itoa(len(b)), true
		}
	}
	if body == nil {
		body, clen = ch.coldLocked()
	}
	ch.mu.Unlock()

	w.Header().Set(codecHeader, codecValue(c))
	if delta {
		w.Header().Set("Content-Type", contentTypeModelDelta)
	} else {
		w.Header().Set("Content-Type", contentTypeModel)
	}
	w.Header().Set("Content-Length", clen)
	if delta {
		s.deltaPulls.Add(1)
		writeCharged(w, body, &s.bytesOutComp, &s.bytesOutDelta)
	} else {
		s.coldPulls.Add(1)
		writeCharged(w, body, &s.bytesOutComp, &s.bytesOutCold)
	}
	//lint:ignore determinism latency histogram only; /stats is observability, not state
	s.pullLat.record(time.Since(start))
}
