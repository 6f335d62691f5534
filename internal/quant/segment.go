package quant

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Segment-level encoding: the parallel counterpart of the streaming codec.
//
// A quantized frame's payload is a flat sequence of chunks — one scale and a
// byte-padded run of packed codes per chunk, every chunk starting on a byte
// boundary — so the payload of any *chunk-aligned* slice of the vector is a
// pure function of that slice alone, and its byte offset inside the frame is
// closed-form. That means S chunk-aligned segments can be encoded by S
// goroutines into disjoint ranges of one preallocated buffer and the result
// is byte-identical to the sequential EncodeStream/Encode output — no
// stitching copies, no protocol change (TestSegmentStitchGoldenBytes pins
// the identity; docs/WIRE.md notes it for non-Go implementations). This is
// what lets the fldist parameter server build a served-model body with every
// core instead of single-threading an O(model) encode.

// SegmentBounds splits an n-value vector into at most segments chunk-aligned
// pieces of nearly equal chunk counts, returning the value offsets
// [0, b₁, …, n]. Every boundary except the last is a multiple of chunk, so
// each piece is a valid EncodeSegmentInto input; the ragged tail (when chunk
// does not divide n) always lands in the final piece. segments is clamped to
// [1, NumChunks(n, chunk)].
func SegmentBounds(n, chunk, segments int) []int {
	if chunk < 1 {
		panic(fmt.Sprintf("quant: SegmentBounds chunk %d must be ≥ 1", chunk))
	}
	nc := NumChunks(n, chunk)
	if segments > nc {
		segments = nc
	}
	if segments < 1 {
		segments = 1
	}
	bounds := make([]int, 1, segments+1)
	base, rem := nc/segments, nc%segments
	off := 0 // in chunks
	for i := 0; i < segments; i++ {
		k := base
		if i < rem {
			k++
		}
		off += k
		v := off * chunk
		if v > n {
			v = n
		}
		bounds = append(bounds, v)
	}
	return bounds
}

// SegmentBytes returns the encoded payload size (scales plus packed codes,
// no frame header) of a chunk-aligned segment of k values. Because chunks
// are byte-padded, it is also the byte offset of the segment starting at
// value k inside a frame's payload — the closed form the concurrent builders
// use to write disjoint ranges.
func SegmentBytes(k, chunk, bits int) int {
	if bits < 2 || bits > 8 {
		panic(fmt.Sprintf("quant: SegmentBytes bits %d outside [2,8]", bits))
	}
	return int(quantPayloadSize(k, chunk, bits))
}

// FrameBytes returns the full encoded frame size of an n-value vector at the
// given codec parameters: the fixed header plus SegmentBytes(n, chunk, bits).
// It equals len(Encode(QuantizeChunks(v, bits, chunk))) for any n-value v.
func FrameBytes(n, chunk, bits int) int {
	return frameHeaderSize + SegmentBytes(n, chunk, bits)
}

// FrameHeaderSize is the fixed byte size of a frame header (see the layout
// in codec.go / docs/WIRE.md).
const FrameHeaderSize = frameHeaderSize

// PutFrameHeader writes the frame header for an n-value vector quantized at
// the given bits/chunk into dst, which must be exactly FrameHeaderSize
// bytes. Together with EncodeSegmentInto over a chunk-aligned partition of
// the vector it reproduces EncodeStream's output byte-for-byte.
func PutFrameHeader(dst []byte, bits, n, chunk int) error {
	if len(dst) != frameHeaderSize {
		return fmt.Errorf("quant: PutFrameHeader dst %d bytes, want %d", len(dst), frameHeaderSize)
	}
	if bits < 2 || bits > 8 {
		return fmt.Errorf("quant: PutFrameHeader bits %d outside [2,8]", bits)
	}
	if chunk < 1 {
		return fmt.Errorf("quant: PutFrameHeader chunk %d must be ≥ 1", chunk)
	}
	if n < 0 || n > math.MaxUint32 {
		return fmt.Errorf("quant: PutFrameHeader n %d outside [0,2^32)", n)
	}
	appendHeader(dst[:0], bits, n, chunk)
	return nil
}

// EncodeSegmentInto encodes v — a chunk-aligned segment of a larger vector,
// i.e. one that starts at a value offset that is a multiple of chunk — into
// dst, which must be exactly SegmentBytes(len(v), chunk, bits) bytes. The
// bytes written are identical to the corresponding range of the sequential
// EncodeStream output over the whole vector, because every chunk's scale and
// codes depend only on that chunk's values. If deq is non-nil it must have
// len(v) and receives the dequantized values (what a decoder reconstructs),
// letting callers fold error-feedback residuals per segment without a second
// pass. Safe to call concurrently for disjoint segments of one buffer.
func EncodeSegmentInto(dst []byte, v []float64, bits, chunk int, deq []float64) error {
	if bits < 2 || bits > 8 {
		return fmt.Errorf("quant: segment encoder bits %d outside [2,8]", bits)
	}
	if chunk < 1 {
		return fmt.Errorf("quant: segment encoder chunk %d must be ≥ 1", chunk)
	}
	if deq != nil && len(deq) != len(v) {
		return fmt.Errorf("quant: segment encoder deq length %d, want %d", len(deq), len(v))
	}
	if want := SegmentBytes(len(v), chunk, bits); len(dst) != want {
		return fmt.Errorf("quant: segment encoder dst %d bytes, want %d for %d values", len(dst), want, len(v))
	}
	off := 0
	for lo := 0; lo < len(v); lo += chunk {
		hi := lo + chunk
		if hi > len(v) {
			hi = len(v)
		}
		part := v[lo:hi]
		scale := chunkScale(part, bits)
		binary.LittleEndian.PutUint64(dst[off:off+8], math.Float64bits(scale))
		nb := codeBytes(len(part), bits)
		var d []float64
		if deq != nil {
			d = deq[lo:hi]
		}
		packCodes(dst[off+8:off+8+nb], d, part, scale, bits)
		off += 8 + nb
	}
	return nil
}

// EncodeSegment is the allocating convenience form of EncodeSegmentInto.
func EncodeSegment(v []float64, bits, chunk int, deq []float64) ([]byte, error) {
	dst := make([]byte, SegmentBytes(len(v), chunk, bits))
	if err := EncodeSegmentInto(dst, v, bits, chunk, deq); err != nil {
		return nil, err
	}
	return dst, nil
}
