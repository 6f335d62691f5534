package cpuid

// hasAVX2 runs the CPUID/XGETBV probe (cpuid_amd64.s).
func hasAVX2() bool
