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

// scaleOf is the symmetric quantization scale maxAbs/maxCode of a chunk
// whose largest magnitude has the bit pattern m (sign cleared). Degenerate
// chunks — all-zero (m = 0) or holding a non-finite value (m above
// MaxFloat64's pattern) — get scale 0, which both packCodes and unpackCodes
// treat as "every code is zero": the chunk round-trips to an exact zero
// vector instead of emitting NaN on dequantize.
//
// For non-negative doubles IEEE-754 order is integer order, and ±Inf and
// every NaN sort above MaxFloat64, so one integer max per value and one
// comparison per chunk give both maxAbs and the finiteness verdict.
func scaleOf(m uint64, bits int) float64 {
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
// which is exact while |x/scale| < 2^52; the chunk's own scale bounds it by
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

// packCodes quantizes v at its chunk's scale (scaleOf) and packs the
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

// encodeChunk is the dense chunk kernel behind every encoded block. It
// quantizes v = p + carry (p itself when carry is nil) at bits with the
// scale fitted to v, packs the codes into codes (codeBytes(len(p), bits)
// bytes, all overwritten), and returns the scale and the largest magnitude
// in v (meaningful when the scale is not 0; see peakOf). A non-nil deq
// (len(p) values) receives what unpackCodes reconstructs from the codes, and
// a non-nil next (which needs deq) the error-feedback residual v − deq. With
// a carry, v is formed in next, which is then required; next may be p or
// carry itself.
//
// Widths 8 and 4 run the vector kernels (kernel_amd64.s) over the chunk's
// first multiple of 16 values when the CPU has AVX2; the Go loops here take
// the rest, and every value on other machines and widths. Both write the
// same bits, so the frame does not depend on the machine.
func encodeChunk(codes []byte, deq, next, p, carry []float64, bits int) (scale, maxAbs float64) {
	n := len(p)
	head := 0
	if useAVX2 && (bits == 8 || bits == 4) {
		head = n &^ 15
	}
	v := p
	if carry != nil {
		v, carry = next[:n], carry[:n]
	}
	var m uint64
	if head > 0 {
		m = sumMaxAVX2(&v[0], &p[0], first(carry), head)
	}
	for i := head; i < len(carry); i++ {
		v[i] = p[i] + carry[i]
	}
	for _, x := range v[head:] {
		m = max(m, math.Float64bits(x)&^signMask)
	}
	if scale = scaleOf(m, bits); scale == 0 {
		head = 0 // packCodes writes the zero chunk; the residual is v
	}
	if head > 0 {
		quantAVX2(&codes[0], first(deq), first(next), &v[0], head, scale, bits)
	}
	packCodes(codes[head*bits/8:], sub(deq, head, n), v[head:], scale, bits)
	if next != nil {
		for i := head; i < n; i++ {
			next[i] = v[i] - deq[i]
		}
	}
	return scale, math.Float64frombits(m)
}

// peakOf is the largest magnitude among a chunk's dequantized values, from
// its scale and its largest input magnitude: dividing, rounding, clamping
// and scaling are each monotone in |x| and odd in x, so the largest
// |code·scale| is the code of the largest |x| times the scale.
func peakOf(scale, maxAbs float64, bits int) float64 {
	if scale == 0 {
		return 0
	}
	return float64(quantize(maxAbs, scale, maxCode(bits))) * scale
}

// applyCodes writes base plus the decoded codes into dst — len(dst) values
// each; dst may be base — and returns the index of the first sum whose
// magnitude is not within limit (NaN never is), or len(dst) when every sum
// is. dst is written up to the failing value's group at most. vals is
// scratch of len(dst) values for the Go loop. Widths 8 and 4 at a non-zero
// scale run the vector kernel over the first multiple of 16 values when the
// CPU has AVX2, with the bits of the Go loop.
func applyCodes(dst, base []float64, codes []byte, scale, limit float64, bits int, vals []float64) int {
	head := 0
	if useAVX2 && (bits == 8 || bits == 4) && scale != 0 {
		head = len(dst) &^ 15
	}
	if head > 0 {
		if t := applyAVX2(&dst[0], &base[0], &codes[0], head, scale, limit, bits); t < head {
			return t
		}
	}
	vals = vals[:len(dst)-head]
	unpackCodes(vals, codes[head*bits/8:], scale, bits)
	for t, x := range vals {
		sum := base[head+t] + x
		if !(math.Abs(sum) <= limit) {
			return head + t
		}
		dst[head+t] = sum
	}
	return len(dst)
}

// first returns &s[0], or nil for an empty s: the vector kernels' form of an
// optional slice.
func first(s []float64) *float64 {
	if len(s) == 0 {
		return nil
	}
	return &s[0]
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
