package quant

import "math"

// Reference kernels, written the obvious way: math.Round for the rounding,
// one generic bit cursor for every width, IsNaN+IsInf for the finiteness
// check. Test-only. The differential and fuzz tests in kernel_test.go hold
// the chunk kernel (encodeChunk, on both paths) and unpackCodes to these
// bit for bit.

func refChunkScale(v []float64, bits int) float64 {
	maxAbs := 0.0
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs / float64(maxCode(bits))
}

// refPackCodes ORs the codes into dst, which must arrive zeroed.
func refPackCodes(dst []byte, v []float64, scale float64, bits int) {
	if scale == 0 {
		return
	}
	mc := maxCode(bits)
	mask := (1 << bits) - 1
	bitPos := 0
	for _, x := range v {
		code := int(math.Round(x / scale))
		if code > mc {
			code = mc
		} else if code < -mc {
			code = -mc
		}
		u := code & mask // two's complement within `bits` bits
		byteIdx := bitPos / 8
		off := bitPos % 8
		dst[byteIdx] |= byte(u << off)
		if off+bits > 8 {
			dst[byteIdx+1] |= byte(u >> (8 - off))
		}
		bitPos += bits
	}
}

func refUnpackCodes(dst []float64, src []byte, scale float64, bits int) {
	if scale == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
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
