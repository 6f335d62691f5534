//go:build !amd64

package tensor

// Without an assembly tile every platform but amd64 runs gemmTileGo.
var useAVX2 = false

func gemm4x8AVX2(c *float64, ldc int, a *float64, aRow, aP int, b *float64, ldb, k int, acc bool) {
	panic("tensor: gemm4x8AVX2 called on a platform without it")
}
