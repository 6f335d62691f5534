package quant

import (
	"fmt"
	"math"
	"sort"
)

// Sparse frame form: top-k sparsification compounds with chunk quantization.
//
// Most of a per-round update's mass sits in few coordinates, so a client (or
// the server's delta downlink) can ship only the k largest-magnitude values
// and let error feedback carry the rest into the next round. The sparse form
// reuses the FPQ1 header with the high bit of the bits byte set — a receiver
// that predates it sees bits outside {0, 2..8} and rejects the frame instead
// of misparsing it:
//
//	[0:4)   magic "FPQ1"
//	[4:5)   version (1)
//	[5:6)   0x80 | bits, bits in 2..8 — the code width of stored values
//	[6:10)  n, uint32 LE — the dense vector length
//	[10:14) chunk, uint32 LE — values per scale, as in dense frames
//	[14:18) k, uint32 LE — number of stored coordinates, k ≤ n
//	[18:)   k uvarint index deltas: the first is idx[0] itself, each later
//	        one is idx[i]−idx[i−1] (≥ 1, indices strictly increasing, < n).
//	        Varints are canonical (no overlong forms) and at most 5 bytes.
//	then    per *occupied* chunk in ascending chunk order: float64 LE scale
//	        fitted to that chunk's stored values only, then
//	        ceil(m·bits/8) packed code bytes for its m stored values
//	        (each occupied chunk starts on a fresh byte boundary)
//
// Unstored coordinates decode to exactly zero, so applying a sparse frame is
// a scatter-add. docs/WIRE.md specifies the layout byte-for-byte and the
// golden vectors under testdata/ pin reference bytes for non-Go clients.

// sparseFlag marks a sparse frame in the header's bits byte.
const sparseFlag = 0x80

// SparseVec is a decoded sparse frame: k stored coordinates of an n-value
// vector, chunk-quantized with one scale per occupied chunk.
type SparseVec struct {
	Bits  int // code width of stored values, 2..8
	Chunk int // values per scale, ≥ 1
	N     int // dense vector length
	// Idx holds the stored coordinates, strictly increasing, in [0, N).
	Idx []int
	// Scales holds one scale per occupied chunk, in ascending chunk order —
	// len(Scales) occupied chunks, each fitted to its stored values only.
	Scales []float64
	// Codes are the packed two's-complement codes of the stored values,
	// grouped per occupied chunk with each group starting on a byte boundary.
	Codes []byte
}

// AddTo scatter-adds the stored dequantized values onto dst, which must hold
// N values. Unstored coordinates are untouched — this is the error-feedback
// apply: dst starts as the base vector and ends as base + decoded delta.
func (s *SparseVec) AddTo(dst []float64) {
	if len(dst) != s.N {
		panic(fmt.Sprintf("quant: SparseVec.AddTo dst has %d values, want %d", len(dst), s.N))
	}
	// A group holds at most min(Chunk, k) values; Chunk alone is a wire
	// field a hostile frame can set to 2^32−1.
	vals := make([]float64, 0, min(s.Chunk, len(s.Idx)))
	si, off := 0, 0
	for i := 0; i < len(s.Idx); {
		j := groupEnd(s.Idx, i, s.Chunk)
		m := j - i
		nb := codeBytes(m, s.Bits)
		vals = vals[:m]
		unpackCodes(vals, s.Codes[off:off+nb], s.Scales[si], s.Bits)
		for t := 0; t < m; t++ {
			dst[s.Idx[i+t]] += vals[t]
		}
		si++
		off += nb
		i = j
	}
}

// groupEnd returns the end of the run of indices sharing idx[i]'s chunk.
func groupEnd(idx []int, i, chunk int) int {
	c := idx[i] / chunk
	j := i + 1
	for j < len(idx) && idx[j]/chunk == c {
		j++
	}
	return j
}

// finiteNonzero reports whether x is a finite value other than exact zero —
// the only coordinates worth storing in a sparse frame.
func finiteNonzero(x float64) bool {
	return x != 0 && !math.IsInf(x, 0) && !math.IsNaN(x)
}

// TopKIndices returns the indices of the k largest-magnitude values of v in
// ascending index order. Selection is deterministic: the threshold is the
// k-th largest magnitude, every strictly larger value is taken, and ties at
// the threshold are broken by ascending index. Exact zeros (and non-finite
// values) are never selected, so fewer than k indices may be returned; k ≤ 0
// returns nil. The result feeds NewSparseEncoder unchanged.
func TopKIndices(v []float64, k int) []int {
	if k <= 0 {
		return nil
	}
	nz := 0
	for _, x := range v {
		if finiteNonzero(x) {
			nz++
		}
	}
	if nz == 0 {
		return nil
	}
	if k >= nz {
		idx := make([]int, 0, nz)
		for i, x := range v {
			if finiteNonzero(x) {
				idx = append(idx, i)
			}
		}
		return idx
	}
	mags := make([]float64, 0, nz)
	for _, x := range v {
		if finiteNonzero(x) {
			mags = append(mags, math.Abs(x))
		}
	}
	t := kthLargest(mags, k)
	greater := 0
	for _, a := range mags {
		if a > t {
			greater++
		}
	}
	need := k - greater // ties at the threshold to take, by ascending index
	idx := make([]int, 0, k)
	ties := make([]int, 0, need)
	for i, x := range v {
		if !finiteNonzero(x) {
			continue
		}
		if a := math.Abs(x); a > t {
			idx = append(idx, i)
		} else if a == t && len(ties) < need {
			ties = append(ties, i)
		}
	}
	idx = append(idx, ties...)
	sort.Ints(idx)
	return idx
}

// kthLargest returns the k-th largest value of a (1 ≤ k ≤ len(a)) by
// in-place quickselect. The result is a pure function of the multiset, so
// callers stay deterministic regardless of pivot luck.
func kthLargest(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	want := k - 1 // index in descending order
	for lo < hi {
		p := partitionDesc(a, lo, hi)
		switch {
		case p == want:
			return a[p]
		case p < want:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
	return a[lo]
}

// partitionDesc partitions a[lo:hi+1] descending around a median-of-three
// pivot and returns the pivot's final position.
func partitionDesc(a []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if a[mid] > a[lo] {
		a[mid], a[lo] = a[lo], a[mid]
	}
	if a[hi] > a[lo] {
		a[hi], a[lo] = a[lo], a[hi]
	}
	if a[hi] > a[mid] {
		a[hi], a[mid] = a[mid], a[hi]
	}
	pivot := a[mid]
	a[mid], a[hi] = a[hi], a[mid]
	i := lo
	for j := lo; j < hi; j++ {
		if a[j] > pivot {
			a[i], a[j] = a[j], a[i]
			i++
		}
	}
	a[i], a[hi] = a[hi], a[i]
	return i
}

// uvarintLen returns the canonical varint byte length of x.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
