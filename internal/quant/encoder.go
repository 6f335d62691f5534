package quant

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The one encoder: every quantized frame, dense or sparse, is written by an
// Encoder, as one segment or many.
//
// A quantized frame's payload is a flat run of chunk blocks — one scale and a
// byte-padded run of packed codes per chunk (per occupied chunk, for sparse
// frames, after the index varints) — so the bytes of any chunk-aligned slice
// of the vector are a pure function of that slice, and their offsets inside
// the frame follow from the layout alone. S chunk-aligned segments can
// therefore be encoded by S goroutines into disjoint ranges of one
// preallocated buffer, and the result is byte-identical to the one-segment
// encode (TestSegmentStitchGoldenBytes, TestSparseSegmentStitchIdentity;
// docs/WIRE.md notes the identity for non-Go implementations). This is what
// lets the fldist parameter server build a served body with every core.

// Encoder writes one quantized frame of an n-value vector at bits/chunk —
// dense, or sparse over the stored coordinates idx — into a buffer of Size()
// bytes, segment by segment. Segment k covers the values
// [Bounds()[k], Bounds()[k+1]); segments write disjoint bytes, so they may
// be encoded concurrently into one buffer. A whole frame is the one-segment
// case (EncodeAll).
type Encoder struct {
	bits, chunk, n int
	sparse         bool
	idx            []int // sparse: stored coordinates, strictly increasing
	bounds         []int // segment value offsets [0, b₁, …, n]
	segs           []segment
	size           int
}

// segment is one segment's share of the frame: the index sub-range it
// stores (sparse) and the frame offsets of its index varints (sparse) and of
// its first chunk block.
type segment struct {
	iLo, iHi int
	varOff   int
	blockOff int
}

// NewEncoder plans the dense frame of an n-value vector quantized at bits
// (2..8) with one scale per chunk values, split into at most segments
// chunk-aligned segments (clamped to [1, NumChunks(n, chunk)]). Invalid
// arguments panic: they are programming errors, not wire corruption.
func NewEncoder(bits, chunk, n, segments int) *Encoder {
	e := newEncoder(bits, chunk, n, segments)
	off := FrameHeaderSize
	for k := range e.segs {
		e.segs[k].blockOff = off + int(quantPayloadSize(e.bounds[k], chunk, bits))
	}
	e.size = off + int(quantPayloadSize(n, chunk, bits))
	return e
}

// NewSparseEncoder plans the sparse frame storing the coordinates idx
// (strictly increasing, within [0, n) — TopKIndices' output) of an n-value
// vector, as NewEncoder plans a dense one. An empty idx is a valid frame
// that decodes to zeros.
func NewSparseEncoder(bits, chunk, n int, idx []int, segments int) *Encoder {
	e := newEncoder(bits, chunk, n, segments)
	e.sparse, e.idx = true, idx
	prev := -1
	for _, ix := range idx {
		if ix <= prev || ix >= n {
			panic(fmt.Sprintf("quant: sparse index %d out of order or outside [0,%d)", ix, n))
		}
		prev = ix
	}
	// Varints of every segment first, then the blocks of every segment: the
	// offsets are two prefix sums over the segments' byte counts.
	blockBytes := make([]int, len(e.segs))
	off, i, prev := FrameHeaderSize+4, 0, 0
	for k := range e.segs {
		s := &e.segs[k]
		s.iLo, s.varOff = i, off
		for ; i < len(idx) && idx[i] < e.bounds[k+1]; i++ {
			off += uvarintLen(uint64(idx[i] - prev))
			prev = idx[i]
		}
		s.iHi = i
		for t := s.iLo; t < i; {
			j := groupEnd(idx, t, chunk)
			blockBytes[k] += 8 + codeBytes(j-t, bits)
			t = j
		}
	}
	for k := range e.segs {
		e.segs[k].blockOff = off
		off += blockBytes[k]
	}
	e.size = off
	return e
}

func newEncoder(bits, chunk, n, segments int) *Encoder {
	if bits < 2 || bits > 8 {
		panic(fmt.Sprintf("quant: bits must be in [2,8], got %d", bits))
	}
	if n < 0 || n > math.MaxUint32 {
		panic(fmt.Sprintf("quant: vector of %d values exceeds frame capacity", n))
	}
	nc := NumChunks(n, chunk) // panics on chunk < 1
	segments = max(1, min(segments, nc))
	bounds := make([]int, segments+1)
	for k := 1; k <= segments; k++ {
		// Segment k ends after ⌈k·nc/segments⌉-ish chunks: the first
		// nc%segments segments take one chunk more than the rest.
		c := k*(nc/segments) + min(k, nc%segments)
		bounds[k] = min(c*chunk, n)
	}
	return &Encoder{bits: bits, chunk: chunk, n: n, bounds: bounds, segs: make([]segment, segments)}
}

// Size returns the frame's encoded byte size.
func (e *Encoder) Size() int { return e.size }

// Bounds returns the segments' value offsets [0, b₁, …, n]: every interior
// bound is a multiple of the chunk, so the ragged tail lands in the last
// segment. The slice is the encoder's own; callers must not modify it.
func (e *Encoder) Bounds() []int { return e.bounds }

// EncodeSegment encodes segment k of v (the whole n-value vector) into its
// byte ranges of frame (Size() bytes); segment 0 also writes the header. If
// deq is non-nil it receives what a decoder reconstructs, written from the
// code in hand: n values for a dense frame, len(idx) for a sparse one, of
// which segment k writes only its own. Safe to call concurrently for
// distinct k on one frame.
func (e *Encoder) EncodeSegment(frame []byte, v, deq []float64, k int) {
	want := e.n
	if e.sparse {
		want = len(e.idx)
	}
	e.begin(frame, len(v), deq != nil && len(deq) != want, k)
	if !e.sparse {
		e.dense(frame, v, nil, deq, nil, k)
		return
	}
	s, off := e.segs[k], e.segs[k].blockOff
	prev := 0
	if s.iLo > 0 {
		prev = e.idx[s.iLo-1]
	}
	vo := s.varOff
	for _, ix := range e.idx[s.iLo:s.iHi] {
		vo += binary.PutUvarint(frame[vo:], uint64(ix-prev))
		prev = ix
	}
	vals := make([]float64, 0, min(e.chunk, s.iHi-s.iLo))
	for i := s.iLo; i < s.iHi; {
		j := groupEnd(e.idx, i, e.chunk)
		vals = vals[:0]
		for _, ix := range e.idx[i:j] {
			vals = append(vals, v[ix])
		}
		off, _ = e.putBlock(frame, off, vals, nil, sub(deq, i, j), nil)
		i = j
	}
}

// EncodeErrorFed is the error-fed form of a dense EncodeSegment: segment k
// of the frame encodes v = p + carry (p itself when carry is nil), deq
// receives what a decoder reconstructs and next the residual v − deq, each
// in one pass per chunk. p, deq and next hold n values (carry too, when
// non-nil), of which segment k writes its own; next may be p or carry
// itself, deq neither. It returns the largest magnitude segment k writes to
// deq. Safe to call concurrently for distinct k on one frame.
func (e *Encoder) EncodeErrorFed(frame []byte, p, carry, deq, next []float64, k int) float64 {
	e.begin(frame, len(p), e.sparse || (carry != nil && len(carry) != e.n) || len(deq) != e.n || len(next) != e.n, k)
	return e.dense(frame, p, carry, deq, next, k)
}

// begin checks an encode call's shapes — frame size, value count, and the
// caller's verdict bad on the rest — panicking on a mismatch, a programming
// error, and writes the frame header when k is segment 0.
func (e *Encoder) begin(frame []byte, n int, bad bool, k int) {
	if bad || len(frame) != e.size || n != e.n {
		panic(fmt.Sprintf("quant: encode into a %d-byte frame of %d values (sparse %v); want %d bytes, %d values",
			len(frame), n, e.sparse, e.size, e.n))
	}
	if k == 0 {
		bits := e.bits
		if e.sparse {
			bits |= sparseFlag
			binary.LittleEndian.PutUint32(frame[FrameHeaderSize:], uint32(len(e.idx)))
		}
		appendHeader(frame[:0], bits, e.n, e.chunk)
	}
}

// dense encodes segment k of a dense frame chunk by chunk and returns the
// largest magnitude it writes to deq.
func (e *Encoder) dense(frame []byte, p, carry, deq, next []float64, k int) float64 {
	off, peak := e.segs[k].blockOff, 0.0
	for lo := e.bounds[k]; lo < e.bounds[k+1]; lo += e.chunk {
		hi := min(lo+e.chunk, e.n)
		var pk float64
		off, pk = e.putBlock(frame, off, p[lo:hi], sub(carry, lo, hi), sub(deq, lo, hi), sub(next, lo, hi))
		peak = max(peak, pk)
	}
	return peak
}

// putBlock writes one chunk block — the scale fitted to p + carry, then the
// packed codes (encodeChunk) — at frame[off:] and returns the offset after
// it and, for the error-fed form (next non-nil), the block's largest |deq|.
func (e *Encoder) putBlock(frame []byte, off int, p, carry, deq, next []float64) (int, float64) {
	nb := codeBytes(len(p), e.bits)
	scale, maxAbs := encodeChunk(frame[off+8:off+8+nb], deq, next, p, carry, e.bits)
	binary.LittleEndian.PutUint64(frame[off:], math.Float64bits(scale))
	if next == nil {
		return off + 8 + nb, 0
	}
	return off + 8 + nb, peakOf(scale, maxAbs, e.bits)
}

// sub returns s[lo:hi], or nil when s is nil.
func sub(s []float64, lo, hi int) []float64 {
	if s == nil {
		return nil
	}
	return s[lo:hi]
}

// EncodeAll returns the whole frame of v, every segment in turn on the
// calling goroutine, with EncodeSegment's deq contract.
func (e *Encoder) EncodeAll(v, deq []float64) []byte {
	frame := make([]byte, e.size)
	for k := range e.segs {
		e.EncodeSegment(frame, v, deq, k)
	}
	return frame
}

// EncodeSparse returns the sparse frame storing v's values at idx (sorted,
// unique, within [0, len(v))). If deq is non-nil it must have len(idx) and
// receives the dequantized stored values — the error-feedback residual of a
// sparse send is v with deq[j] subtracted at idx[j] and everything else kept
// whole.
func EncodeSparse(v []float64, idx []int, bits, chunk int, deq []float64) []byte {
	return NewSparseEncoder(bits, chunk, len(v), idx, 1).EncodeAll(v, deq)
}

// EncodeStream writes v's dense frame at bits/chunk to w. If deq is non-nil
// (len(v)), it receives the dequantized reconstruction. The bytes are
// identical to Encode(QuantizeChunks(v, bits, chunk)). Invalid codec
// parameters are an error here, not a panic.
func EncodeStream(w io.Writer, v []float64, bits, chunk int, deq []float64) error {
	if bits < 2 || bits > 8 || chunk < 1 || (deq != nil && len(deq) != len(v)) {
		return fmt.Errorf("quant: EncodeStream bits %d, chunk %d, %d-value deq for %d values", bits, chunk, len(deq), len(v))
	}
	if _, err := w.Write(NewEncoder(bits, chunk, len(v), 1).EncodeAll(v, deq)); err != nil {
		return fmt.Errorf("quant: EncodeStream: %w", err)
	}
	return nil
}
