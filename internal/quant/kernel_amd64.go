package quant

import "fedprophet/internal/cpuid"

// The vector forms of the dense 8- and 4-bit chunk kernels (kernel_amd64.s).
// Each takes a positive multiple of 16 values and reads and writes without
// bounds checks: encodeChunk and applyCodes size every slice first.

//go:noescape
func sumMaxAVX2(v, p, carry *float64, m int) uint64

//go:noescape
func quantAVX2(codes *byte, deq, next, v *float64, m int, scale float64, bits int)

//go:noescape
func applyAVX2(dst, base *float64, codes *byte, m int, scale, limit float64, bits int) int

// useAVX2 selects the vector kernels in encodeChunk and applyCodes. It is the
// module's one CPUID probe (internal/cpuid); only in-package tests flip it,
// to run the same suites over the portable Go twin.
var useAVX2 = cpuid.AVX2
