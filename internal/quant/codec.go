package quant

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The binary frame codec: a self-describing serialization of either a
// chunk-quantized vector (Encode) or an exact float64 vector (EncodeRaw),
// with a magic+version header so receivers can reject foreign or truncated
// bodies before touching the payload. docs/WIRE.md specifies the layout
// byte-for-byte for non-Go implementations.
//
//	[0:4)   magic "FPQ1"
//	[4:5)   version (currently 1)
//	[5:6)   bits — 0 for a raw float64 payload, 2..8 for packed codes
//	[6:10)  n, uint32 little-endian — number of float64 values
//	[10:14) chunk, uint32 little-endian — values per chunk (0 when bits = 0)
//	[14:)   payload:
//	        bits = 0:  n × float64 little-endian
//	        bits ≥ 2:  per chunk: float64 LE scale, then ceil(len·bits/8)
//	                   packed code bytes (chunks start on byte boundaries)
//
// A bits byte with the high flag bit set (0x80 | bits) marks the sparse
// top-k form, whose payload layout lives in sparse.go — receivers that
// predate it reject the flagged value as out of range instead of misparsing.
const (
	frameMagic      = "FPQ1"
	frameVersion    = 1
	frameHeaderSize = 14

	// RawBits is the bits field of an uncompressed float64 frame.
	RawBits = 0
)

// ErrCodec is the sentinel wrapped by every Decode error, so callers can
// distinguish malformed frames from transport failures with errors.Is.
var ErrCodec = errors.New("quant: bad frame")

// Frame is a decoded wire frame: an exact float64 vector (Bits == RawBits,
// Raw set), a dense chunk-quantized one (Bits ≥ 2, Q set), or a sparse
// top-k one (Bits ≥ 2, Sparse set — Bits is the base code width with the
// wire flag bit already stripped).
type Frame struct {
	Bits   int
	Chunk  int
	Raw    []float64  // when Bits == RawBits
	Q      Chunked    // when Bits ≥ 2 and Sparse == nil
	Sparse *SparseVec // when the frame is sparse
}

// IsRaw reports whether the frame carries exact float64 values.
func (f *Frame) IsRaw() bool { return f.Bits == RawBits }

// IsSparse reports whether the frame stores only selected coordinates.
func (f *Frame) IsSparse() bool { return f.Sparse != nil }

// Encode serializes a chunk-quantized vector into a frame. The inverse of
// Decode: Decode(Encode(c)) yields a frame whose re-encoding is
// byte-identical. Panics on a structurally invalid Chunked (wrong scale or
// code lengths), which indicates a programming error, not wire corruption.
func Encode(c Chunked) []byte {
	if c.Bits < 2 || c.Bits > 8 {
		panic(fmt.Sprintf("quant: Encode: bits %d out of range", c.Bits))
	}
	nc := NumChunks(c.N, c.Chunk)
	if len(c.Scales) != nc {
		panic(fmt.Sprintf("quant: Encode: %d scales for %d chunks", len(c.Scales), nc))
	}
	total := quantPayloadSize(c.N, c.Chunk, c.Bits) - 8*int64(nc)
	if int64(len(c.Codes)) != total {
		panic(fmt.Sprintf("quant: Encode: %d code bytes, want %d", len(c.Codes), total))
	}
	buf := make([]byte, 0, c.Bytes())
	buf = appendHeader(buf, c.Bits, c.N, c.Chunk)
	off := 0
	for i := 0; i < nc; i++ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Scales[i]))
		nb := codeBytes(chunkLen(c.N, c.Chunk, i), c.Bits)
		buf = append(buf, c.Codes[off:off+nb]...)
		off += nb
	}
	return buf
}

// EncodeRaw serializes v as an exact float64 frame (bits = RawBits) — the
// fallback body for receivers that did not negotiate compression, and the
// format of the server's global-model pulls when compression is off.
func EncodeRaw(v []float64) []byte {
	return AppendRaw(make([]byte, 0, frameHeaderSize+8*len(v)), v)
}

// AppendRaw appends v's exact float64 frame onto dst and returns the extended
// slice — EncodeRaw for callers embedding frames inside a larger record (the
// fldist write-ahead log frames every vector payload this way, so logged
// snapshots share the wire codec's byte-stable encoding and its corruption
// checks). The appended bytes are identical to EncodeRaw(v).
func AppendRaw(dst []byte, v []float64) []byte {
	dst = appendHeader(dst, RawBits, len(v), 0)
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// quantPayloadSize returns the quantized payload size (scales + packed
// codes) in closed form — O(1), since header fields are attacker-controlled
// and the size must be known before trusting (or looping over) anything.
func quantPayloadSize(n, chunk, bits int) int64 {
	nc := NumChunks(n, chunk)
	if nc == 0 {
		return 0
	}
	full := int64(nc - 1)
	last := chunkLen(n, chunk, nc-1)
	return full*int64(8+codeBytes(chunk, bits)) + int64(8+codeBytes(last, bits))
}

func appendHeader(buf []byte, bits, n, chunk int) []byte {
	if n > math.MaxUint32 {
		panic(fmt.Sprintf("quant: vector of %d values exceeds frame capacity", n))
	}
	buf = append(buf, frameMagic...)
	buf = append(buf, frameVersion, byte(bits))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(chunk))
	return buf
}

// Decode parses exactly one frame occupying all of b. Trailing bytes are an
// error; use DecodeFirst to parse a frame embedded in a larger message.
func Decode(b []byte) (*Frame, error) {
	f, rest, err := DecodeFirst(b)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after frame", ErrCodec, len(rest))
	}
	return f, nil
}

// DecodeFirst parses the frame at the head of b and returns it together
// with the remaining bytes. All structural violations — short buffer, wrong
// magic, unknown version, bits outside {0, 2..8}, zero chunk on a quantized
// frame, truncated payload, non-finite scale — return an error wrapping
// ErrCodec; no input panics.
func DecodeFirst(b []byte) (*Frame, []byte, error) {
	if len(b) < frameHeaderSize {
		return nil, nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrCodec, len(b), frameHeaderSize)
	}
	if string(b[:4]) != frameMagic {
		return nil, nil, fmt.Errorf("%w: magic %q, want %q", ErrCodec, b[:4], frameMagic)
	}
	if b[4] != frameVersion {
		return nil, nil, fmt.Errorf("%w: version %d, want %d", ErrCodec, b[4], frameVersion)
	}
	bits := int(b[5])
	n := int(binary.LittleEndian.Uint32(b[6:10]))
	chunk := int(binary.LittleEndian.Uint32(b[10:14]))
	body := b[frameHeaderSize:]

	if bits&sparseFlag != 0 {
		base := bits &^ sparseFlag
		if base < 2 || base > 8 {
			return nil, nil, fmt.Errorf("%w: sparse bits %d outside [2,8]", ErrCodec, base)
		}
		if chunk < 1 {
			return nil, nil, fmt.Errorf("%w: sparse frame with chunk %d", ErrCodec, chunk)
		}
		s, rest, err := decodeSparseBody(body, base, n, chunk)
		if err != nil {
			return nil, nil, err
		}
		return &Frame{Bits: base, Chunk: chunk, Sparse: s}, rest, nil
	}

	if bits == RawBits {
		if chunk != 0 {
			return nil, nil, fmt.Errorf("%w: raw frame with chunk %d", ErrCodec, chunk)
		}
		need := int64(8) * int64(n)
		if int64(len(body)) < need {
			return nil, nil, fmt.Errorf("%w: raw payload %d bytes, want %d", ErrCodec, len(body), need)
		}
		f := &Frame{Bits: RawBits, Raw: make([]float64, n)}
		for i := range f.Raw {
			f.Raw[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		}
		return f, body[need:], nil
	}

	if bits < 2 || bits > 8 {
		return nil, nil, fmt.Errorf("%w: bits %d outside {0, 2..8}", ErrCodec, bits)
	}
	if chunk < 1 {
		return nil, nil, fmt.Errorf("%w: quantized frame with chunk %d", ErrCodec, chunk)
	}
	nc := NumChunks(n, chunk)
	need := quantPayloadSize(n, chunk, bits)
	if int64(len(body)) < need {
		return nil, nil, fmt.Errorf("%w: quantized payload %d bytes, want %d", ErrCodec, len(body), need)
	}
	f := &Frame{
		Bits:  bits,
		Chunk: chunk,
		Q: Chunked{
			Bits:   bits,
			Chunk:  chunk,
			N:      n,
			Scales: make([]float64, nc),
			Codes:  make([]byte, need-8*int64(nc)),
		},
	}
	src, dst := 0, 0
	for i := 0; i < nc; i++ {
		s := math.Float64frombits(binary.LittleEndian.Uint64(body[src:]))
		if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
			return nil, nil, fmt.Errorf("%w: chunk %d scale %v not a finite non-negative value", ErrCodec, i, s)
		}
		f.Q.Scales[i] = s
		src += 8
		nb := codeBytes(chunkLen(n, chunk, i), bits)
		copy(f.Q.Codes[dst:dst+nb], body[src:src+nb])
		src += nb
		dst += nb
	}
	return f, body[need:], nil
}
