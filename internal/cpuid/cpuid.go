// Package cpuid answers, once at start-up, which vector extensions the
// machine running the process can use. It is the one probe behind every
// assembly kernel in the module (the GEMM tile in internal/tensor, the dense
// codec chunk in internal/quant); each kernel package copies the answer into
// its own switch, which only that package's tests flip to run the same suites
// over the portable Go twin. No option, flag or environment variable moves it.
package cpuid

// AVX2 reports whether the CPU and the OS both support AVX2: the CPU lists
// it and the OS saves the YMM state across context switches. It is false on
// every platform but amd64.
var AVX2 = hasAVX2()
