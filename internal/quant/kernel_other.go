//go:build !amd64

package quant

// Without the vector kernels every platform but amd64 runs the Go twin.
var useAVX2 = false

func sumMaxAVX2(v, p, carry *float64, m int) uint64 {
	panic("quant: sumMaxAVX2 called on a platform without it")
}

func quantAVX2(codes *byte, deq, next, v *float64, m int, scale float64, bits int) {
	panic("quant: quantAVX2 called on a platform without it")
}

func applyAVX2(dst, base *float64, codes *byte, m int, scale, limit float64, bits int) int {
	panic("quant: applyAVX2 called on a platform without it")
}
