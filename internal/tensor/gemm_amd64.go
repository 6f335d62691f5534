package tensor

// gemm4x8AVX2 is the one vector micro-kernel (gemm_amd64.s). It reads
// a[r*aRow+p*aP] for r < 4, p < k and b[p*ldb : p*ldb+8], and writes
// c[r*ldc : r*ldc+8] (overwritten, or added to with acc), all without bounds
// checks: gemmBlock validates every extent before calling it.
//
//go:noescape
func gemm4x8AVX2(c *float64, ldc int, a *float64, aRow, aP int, b *float64, ldb, k int, acc bool)

// cpuHasAVX2 reports whether the CPU and the OS both support AVX2.
func cpuHasAVX2() bool

// useAVX2 selects the assembly tile in gemmBlock. It is decided once from
// what the machine reports; only in-package tests flip it, to run the same
// suites over the portable twin.
var useAVX2 = cpuHasAVX2()
