package quant

import "fmt"

// Chunked is a per-chunk symmetric quantization of a float64 vector: the
// vector is split into fixed-size chunks of Chunk values (the last chunk may
// be shorter) and each chunk carries its own scale, so one outlier weight
// only coarsens the resolution of its own chunk instead of the whole vector.
// value[i] ≈ Scales[i/Chunk] · code[i], code ∈ [−(2^(Bits−1)−1), 2^(Bits−1)−1].
type Chunked struct {
	Bits  int
	Chunk int // values per chunk, ≥ 1
	N     int // total values
	// Scales holds one scale per chunk, NumChunks(N, Chunk) entries. A zero
	// scale marks a degenerate chunk (all-zero or non-finite input) whose
	// codes are all zero and which dequantizes to exact zeros — never NaN.
	Scales []float64
	// Codes are the packed two's-complement codes. Every chunk starts at a
	// fresh byte boundary (codeBytes(chunkLen, Bits) bytes per chunk), so a
	// chunk is decodable without unpacking its predecessors.
	Codes []byte
}

// NumChunks returns the chunk count of an n-value vector at the given chunk
// size: ceil(n/chunk).
func NumChunks(n, chunk int) int {
	if chunk < 1 {
		panic(fmt.Sprintf("quant: chunk must be ≥ 1, got %d", chunk))
	}
	return (n + chunk - 1) / chunk
}

// QuantizeChunks compresses v at the given bit width (2..8) with an
// independent symmetric scale per chunk of `chunk` values. All-zero chunks
// (and chunks containing non-finite values) encode with scale 0 and
// dequantize to exact zeros.
func QuantizeChunks(v []float64, bits, chunk int) Chunked {
	if bits < 2 || bits > 8 {
		panic(fmt.Sprintf("quant: bits must be in [2,8], got %d", bits))
	}
	nc := NumChunks(len(v), chunk)
	c := Chunked{
		Bits:   bits,
		Chunk:  chunk,
		N:      len(v),
		Scales: make([]float64, nc),
	}
	total := 0
	for i := 0; i < nc; i++ {
		total += codeBytes(chunkLen(len(v), chunk, i), bits)
	}
	c.Codes = make([]byte, total)
	off := 0
	for i := 0; i < nc; i++ {
		part := v[i*chunk : i*chunk+chunkLen(len(v), chunk, i)]
		c.Scales[i] = chunkScale(part, bits)
		nb := codeBytes(len(part), bits)
		packCodes(c.Codes[off:off+nb], nil, part, c.Scales[i], bits)
		off += nb
	}
	return c
}

// chunkLen returns the value count of chunk i of an n-value vector.
func chunkLen(n, chunk, i int) int {
	if rem := n - i*chunk; rem < chunk {
		return rem
	}
	return chunk
}

// Dequantize reconstructs the approximate float vector.
func (c Chunked) Dequantize() []float64 {
	out := make([]float64, c.N)
	off := 0
	for i := range c.Scales {
		l := chunkLen(c.N, c.Chunk, i)
		nb := codeBytes(l, c.Bits)
		unpackCodes(out[i*c.Chunk:i*c.Chunk+l], c.Codes[off:off+nb], c.Scales[i], c.Bits)
		off += nb
	}
	return out
}

// Bytes returns the serialized wire size of the chunked vector: the frame
// header plus one float64 scale and the packed codes per chunk. It equals
// len(Encode(c)).
func (c Chunked) Bytes() int {
	return frameHeaderSize + 8*len(c.Scales) + len(c.Codes)
}

// MaxError returns the worst-case absolute reconstruction error across all
// chunks, max(Scales)/2.
func (c Chunked) MaxError() float64 {
	m := 0.0
	for _, s := range c.Scales {
		if s > m {
			m = s
		}
	}
	return m / 2
}

// CompressRatio returns float32-bytes / wire-bytes, the communication saving
// relative to uncompressed float32 uploads.
func (c Chunked) CompressRatio() float64 {
	if c.Bytes() == 0 {
		return 0
	}
	return float64(4*c.N) / float64(c.Bytes())
}
