package tensor

import "fedprophet/internal/cpuid"

// gemm4x8AVX2 is the one vector micro-kernel (gemm_amd64.s). It reads
// a[r*aRow+p*aP] for r < 4, p < k and b[p*ldb : p*ldb+8], and writes
// c[r*ldc : r*ldc+8] (overwritten, or added to with acc), all without bounds
// checks: gemmBlock validates every extent before calling it.
//
//go:noescape
func gemm4x8AVX2(c *float64, ldc int, a *float64, aRow, aP int, b *float64, ldb, k int, acc bool)

// useAVX2 selects the assembly tile in gemmBlock. It is the module's one
// CPUID probe (internal/cpuid); only in-package tests flip it, to run the
// same suites over the portable twin.
var useAVX2 = cpuid.AVX2
