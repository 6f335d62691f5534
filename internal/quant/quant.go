// Package quant implements symmetric low-bit quantization of parameter
// vectors, the parameter-level memory/communication reduction the paper's §8
// names as complementary to FedProphet's layer-level partitioning. Clients
// can upload quantized module updates and the server dequantizes before
// partial averaging.
//
// Every vector is quantized with an independent scale per fixed-size chunk
// (a chunk as long as the vector is the whole-vector form), confining each
// outlier weight's damage to its own chunk. Frames are self-describing binary
// records with a magic+version header (see docs/WIRE.md for the byte-level
// layout), so non-Go clients can interoperate. One Encoder writes every
// quantized frame, dense or sparse, whole or as parallel segments; one
// StreamDecoder reads every frame, and Decode/DecodeFirst run it over a
// byte slice.
//
// The package is deterministic: identical input vectors produce identical
// codes and frames on every run, which the wire-level golden tests and the
// WAL replay path both rely on.
//
//lint:deterministic
package quant

import "math"

// maxCode returns the largest representable magnitude for b bits.
func maxCode(bits int) int { return (1 << (bits - 1)) - 1 }

// codeBytes returns the packed size of n codes at the given bit width.
func codeBytes(n, bits int) int { return (n*bits + 7) / 8 }

// chunkScale fits the symmetric quantization scale maxAbs/maxCode to v.
// Degenerate inputs — all-zero (maxAbs = 0) or containing a non-finite
// value (maxAbs = ±Inf or NaN) — yield scale 0, which both packCodes and
// unpackCodes treat as "every code is zero": the chunk round-trips to an
// exact zero vector instead of emitting NaN on dequantize.
//
// The maximum runs over the magnitudes' bit patterns: for non-negative
// doubles IEEE-754 order is integer order, and ±Inf and every NaN sort above
// MaxFloat64, so one integer max per value and one comparison per chunk give
// both maxAbs and the finiteness verdict.
func chunkScale(v []float64, bits int) float64 {
	var m uint64
	for _, x := range v {
		m = max(m, math.Float64bits(x)&^signMask)
	}
	if m > maxFiniteBits {
		return 0
	}
	return math.Float64frombits(m) / float64(maxCode(bits))
}

const (
	signMask      = 1 << 63
	maxFiniteBits = 0x7FEFFFFFFFFFFFFF // math.Float64bits(math.MaxFloat64)
)

// quantize returns the saturated code of x at the given scale:
// round-half-away-from-zero of the IEEE quotient x/scale, clamped to ±mc.
// The rounding is math.Round in integer form — truncate, then step away from
// zero when the (exactly representable) fractional part reaches one half —
// which is exact while |x/scale| < 2^52; scale = chunkScale(v) bounds it by
// about 1.5·mc (the slack is a subnormal scale's rounding).
func quantize(x, scale float64, mc int) int {
	q := x / scale
	c := int(q)
	f := q - float64(c)
	if f >= 0.5 {
		c++
	}
	if f <= -0.5 {
		c--
	}
	return min(max(c, -mc), mc)
}

// packCodes quantizes v at scale = chunkScale(v, bits) and packs the
// two's-complement codes little-endian into dst, overwriting all of its
// codeBytes(len(v), bits) bytes. A non-nil deq (len(v) values) receives what
// unpackCodes would reconstruct from those bytes — float64(code)·scale — from
// the code in hand, not by re-reading dst. A zero scale writes all zeros.
// The wire widths 8 and 4 get straight-line byte and nibble loops; the bit
// cursor serves the rest.
func packCodes(dst []byte, deq, v []float64, scale float64, bits int) {
	if scale == 0 {
		clear(dst)
		clear(deq)
		return
	}
	mc := maxCode(bits)
	dst = dst[:codeBytes(len(v), bits)]
	if deq != nil {
		deq = deq[:len(v)]
	}
	switch bits {
	case 8:
		for i, x := range v {
			c := quantize(x, scale, mc)
			dst[i] = byte(c)
			if deq != nil {
				deq[i] = float64(c) * scale
			}
		}
	case 4:
		for i := 0; i+1 < len(v); i += 2 {
			lo, hi := quantize(v[i], scale, mc), quantize(v[i+1], scale, mc)
			dst[i/2] = byte(lo&15 | hi<<4)
			if deq != nil {
				deq[i], deq[i+1] = float64(lo)*scale, float64(hi)*scale
			}
		}
		if n := len(v); n%2 == 1 {
			c := quantize(v[n-1], scale, mc)
			dst[n/2] = byte(c & 15)
			if deq != nil {
				deq[n-1] = float64(c) * scale
			}
		}
	default:
		mask := (1 << bits) - 1
		acc, nacc, j := 0, 0, 0
		for i, x := range v {
			c := quantize(x, scale, mc)
			if deq != nil {
				deq[i] = float64(c) * scale
			}
			acc |= (c & mask) << nacc
			nacc += bits
			for nacc >= 8 {
				dst[j] = byte(acc)
				j++
				acc >>= 8
				nacc -= 8
			}
		}
		if nacc > 0 {
			dst[j] = byte(acc)
		}
	}
}

// unpackCodes reverses packCodes: it sign-extends each packed code from src
// and writes float64(code)·scale into dst. A zero scale writes zeros. 8-bit
// codes convert byte by byte, 4-bit codes look both nibbles up in a 16-entry
// table of the chunk's possible values, the other widths walk a bit cursor.
func unpackCodes(dst []float64, src []byte, scale float64, bits int) {
	if scale == 0 {
		clear(dst)
		return
	}
	switch bits {
	case 8:
		src = src[:len(dst)]
		for i := range dst {
			dst[i] = float64(int8(src[i])) * scale
		}
	case 4:
		var tab [16]float64
		for u := range tab {
			tab[u] = float64(int8(u<<4)>>4) * scale
		}
		for i, b := range src[:len(dst)/2] {
			dst[2*i], dst[2*i+1] = tab[b&15], tab[b>>4]
		}
		if len(dst)%2 == 1 {
			dst[len(dst)-1] = tab[src[len(dst)/2]&15]
		}
	default:
		mask := (1 << bits) - 1
		signBit := 1 << (bits - 1)
		bitPos := 0
		for i := range dst {
			byteIdx := bitPos / 8
			off := bitPos % 8
			u := int(src[byteIdx]) >> off
			if off+bits > 8 {
				u |= int(src[byteIdx+1]) << (8 - off)
			}
			u &= mask
			code := u
			if u&signBit != 0 {
				code = u - (1 << bits) // sign-extend
			}
			dst[i] = float64(code) * scale
			bitPos += bits
		}
	}
}
