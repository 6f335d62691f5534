package quant

import (
	"encoding/binary"
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

// Encode re-serializes the sparse vector into its wire frame. Decoding and
// re-encoding a valid sparse frame is byte-identical (varints are canonical).
//
//lint:ignore unusedexport the quant and fldist tests forge and round-trip sparse frames with it
func (s *SparseVec) Encode() []byte {
	buf := make([]byte, 0, frameHeaderSize+sparsePayloadSize(s.Idx, s.Chunk, s.Bits))
	buf = appendHeader(buf, sparseFlag|s.Bits, s.N, s.Chunk)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Idx)))
	prev := 0
	for _, ix := range s.Idx {
		buf = binary.AppendUvarint(buf, uint64(ix-prev))
		prev = ix
	}
	si, off := 0, 0
	for i := 0; i < len(s.Idx); {
		j := groupEnd(s.Idx, i, s.Chunk)
		nb := codeBytes(j-i, s.Bits)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Scales[si]))
		buf = append(buf, s.Codes[off:off+nb]...)
		si++
		off += nb
		i = j
	}
	return buf
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
// returns nil. The result feeds EncodeSparse/AppendSparse unchanged.
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

// uvarint32 decodes one canonical uvarint of at most 5 bytes (enough for any
// uint32-range value) from b, returning the value and bytes consumed. It
// rejects truncated input, overlong (non-canonical) encodings, and varints
// longer than 5 bytes — all as errors wrapping ErrCodec.
func uvarint32(b []byte) (uint64, int, error) {
	var x uint64
	var s uint
	for i := 0; i < len(b) && i < 5; i++ {
		c := b[i]
		if c < 0x80 {
			if i > 0 && c == 0 {
				return 0, 0, fmt.Errorf("%w: overlong varint", ErrCodec)
			}
			return x | uint64(c)<<s, i + 1, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	if len(b) >= 5 {
		return 0, 0, fmt.Errorf("%w: varint longer than 5 bytes", ErrCodec)
	}
	return 0, 0, fmt.Errorf("%w: truncated varint", ErrCodec)
}

// checkSparseIdx panics unless idx is strictly increasing within [0, n) —
// the encoder-side structural contract (TopKIndices always satisfies it).
func checkSparseIdx(idx []int, n int) {
	prev := -1
	for _, ix := range idx {
		if ix <= prev || ix >= n {
			panic(fmt.Sprintf("quant: sparse index %d out of order or outside [0,%d)", ix, n))
		}
		prev = ix
	}
}

// sparsePayloadSize returns the payload size (k field + index varints +
// per-occupied-chunk scale and codes) of a sparse frame storing idx.
func sparsePayloadSize(idx []int, chunk, bits int) int {
	sz := 4
	prev := 0
	for _, ix := range idx {
		sz += uvarintLen(uint64(ix - prev))
		prev = ix
	}
	for i := 0; i < len(idx); {
		j := groupEnd(idx, i, chunk)
		sz += 8 + codeBytes(j-i, bits)
		i = j
	}
	return sz
}

// SparseFrameBytes returns the full encoded frame size of a sparse frame
// storing idx at the given codec parameters — len(EncodeSparse(...)) without
// encoding. Serve-plane builders use it to allocate exact-size bodies.
func SparseFrameBytes(idx []int, chunk, bits int) int {
	return frameHeaderSize + sparsePayloadSize(idx, chunk, bits)
}

// PutSparseFrameHeader writes the sparse frame header plus the k field into
// dst, which must be exactly FrameHeaderSize+4 bytes — the prefix before the
// payload ranges that EncodeSparseSegmentInto fills. The bits argument is
// the base code width; the wire flag bit is set here.
func PutSparseFrameHeader(dst []byte, bits, n, chunk, k int) error {
	if len(dst) != frameHeaderSize+4 {
		return fmt.Errorf("quant: PutSparseFrameHeader dst %d bytes, want %d", len(dst), frameHeaderSize+4)
	}
	if bits < 2 || bits > 8 {
		return fmt.Errorf("quant: PutSparseFrameHeader bits %d outside [2,8]", bits)
	}
	if chunk < 1 {
		return fmt.Errorf("quant: PutSparseFrameHeader chunk %d must be ≥ 1", chunk)
	}
	if n < 0 || n > math.MaxUint32 {
		return fmt.Errorf("quant: PutSparseFrameHeader n %d outside [0,2^32)", n)
	}
	if k < 0 || k > n {
		return fmt.Errorf("quant: PutSparseFrameHeader k %d outside [0,%d]", k, n)
	}
	appendHeader(dst[:0], sparseFlag|bits, n, chunk)
	binary.LittleEndian.PutUint32(dst[frameHeaderSize:], uint32(k))
	return nil
}

// SparseSegment describes one chunk-aligned piece of a sparse frame for the
// segment-parallel encoder: the index sub-range it owns and the byte offsets
// of its varint run and its chunk-block run inside the frame payload (the
// bytes after the 14-byte header). Segments own disjoint byte ranges, so S
// goroutines can encode into one buffer — same contract as EncodeSegmentInto.
type SparseSegment struct {
	ILo, IHi int // sub-range of the selected index slice
	VarOff   int // payload offset of this segment's index varints
	BlockOff int // payload offset of this segment's chunk blocks
}

// SparseSegments splits the selected indices along the chunk-aligned value
// bounds produced by SegmentBounds (offsets [0, b₁, …, n]) and returns each
// segment's index sub-range and closed-form payload byte offsets. Because
// every boundary is chunk-aligned, no occupied chunk straddles two segments,
// and because index deltas restart from the previous segment's last index,
// the concatenation of segment encodings is byte-identical to the sequential
// AppendSparse output (TestSparseSegmentStitchIdentity pins it). Panics on a
// structurally invalid index slice, like Encode.
func SparseSegments(idx []int, bounds []int, chunk, bits int) []SparseSegment {
	n := bounds[len(bounds)-1]
	checkSparseIdx(idx, n)
	segs := make([]SparseSegment, len(bounds)-1)
	varBytes := make([]int, len(segs))
	blockBytes := make([]int, len(segs))
	i := 0
	prev := 0
	for s := range segs {
		segs[s].ILo = i
		for i < len(idx) && idx[i] < bounds[s+1] {
			varBytes[s] += uvarintLen(uint64(idx[i] - prev))
			prev = idx[i]
			i++
		}
		segs[s].IHi = i
		for t := segs[s].ILo; t < i; {
			j := groupEnd(idx, t, chunk)
			blockBytes[s] += 8 + codeBytes(j-t, bits)
			t = j
		}
	}
	varOff := 4
	for s := range segs {
		segs[s].VarOff = varOff
		varOff += varBytes[s]
	}
	blockOff := varOff
	for s := range segs {
		segs[s].BlockOff = blockOff
		blockOff += blockBytes[s]
	}
	return segs
}

// EncodeSparseSegmentInto encodes one segment's index varints and chunk
// blocks into its disjoint ranges of payload (the sparse frame's bytes after
// the header; the caller writes the header and the k field). v is the full
// dense vector and idx the full selected index slice — the segment touches
// only idx[ILo:IHi]. If deq is non-nil it must have len(idx); deq[j] receives
// the dequantized value of idx[j] for j in [ILo, IHi), the per-coordinate
// reconstruction error feedback subtracts. Safe to call concurrently for the
// segments of one SparseSegments partition.
func EncodeSparseSegmentInto(payload []byte, v []float64, idx []int, seg SparseSegment, bits, chunk int, deq []float64) error {
	if bits < 2 || bits > 8 {
		return fmt.Errorf("quant: sparse segment encoder bits %d outside [2,8]", bits)
	}
	if chunk < 1 {
		return fmt.Errorf("quant: sparse segment encoder chunk %d must be ≥ 1", chunk)
	}
	if deq != nil && len(deq) != len(idx) {
		return fmt.Errorf("quant: sparse segment encoder deq length %d, want %d", len(deq), len(idx))
	}
	off := seg.VarOff
	prev := 0
	if seg.ILo > 0 {
		prev = idx[seg.ILo-1]
	}
	for i := seg.ILo; i < seg.IHi; i++ {
		off += binary.PutUvarint(payload[off:], uint64(idx[i]-prev))
		prev = idx[i]
	}
	vals := make([]float64, 0, min(chunk, seg.IHi-seg.ILo))
	boff := seg.BlockOff
	for i := seg.ILo; i < seg.IHi; {
		j := groupEnd(idx, i, chunk)
		m := j - i
		vals = vals[:m]
		for t := 0; t < m; t++ {
			vals[t] = v[idx[i+t]]
		}
		scale := chunkScale(vals, bits)
		binary.LittleEndian.PutUint64(payload[boff:boff+8], math.Float64bits(scale))
		nb := codeBytes(m, bits)
		var d []float64
		if deq != nil {
			d = deq[i:j]
		}
		packCodes(payload[boff+8:boff+8+nb], d, vals, scale, bits)
		boff += 8 + nb
		i = j
	}
	return nil
}

// AppendSparse appends the sparse frame storing v's values at idx (sorted,
// unique, within [0, len(v))) onto dst and returns the extended slice. If
// deq is non-nil it must have len(idx) and receives the dequantized stored
// values — the error-feedback residual of a sparse send is the input vector
// with deq[j] subtracted at idx[j] and everything else kept whole. Panics on
// structurally invalid arguments, like Encode; wire corruption is the
// decoder's concern.
func AppendSparse(dst []byte, v []float64, idx []int, bits, chunk int, deq []float64) []byte {
	if bits < 2 || bits > 8 {
		panic(fmt.Sprintf("quant: AppendSparse: bits %d out of range", bits))
	}
	if chunk < 1 {
		panic(fmt.Sprintf("quant: AppendSparse: chunk %d must be ≥ 1", chunk))
	}
	if deq != nil && len(deq) != len(idx) {
		panic(fmt.Sprintf("quant: AppendSparse: deq length %d, want %d", len(deq), len(idx)))
	}
	checkSparseIdx(idx, len(v))
	payload := sparsePayloadSize(idx, chunk, bits)
	base := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize+payload)...)
	buf := dst[base:]
	appendHeader(buf[:0], sparseFlag|bits, len(v), chunk)
	binary.LittleEndian.PutUint32(buf[frameHeaderSize:frameHeaderSize+4], uint32(len(idx)))
	seg := SparseSegment{ILo: 0, IHi: len(idx), VarOff: 4}
	seg.BlockOff = 4
	prev := 0
	for _, ix := range idx {
		seg.BlockOff += uvarintLen(uint64(ix - prev))
		prev = ix
	}
	if err := EncodeSparseSegmentInto(buf[frameHeaderSize:], v, idx, seg, bits, chunk, deq); err != nil {
		panic(err) // arguments validated above; unreachable
	}
	return dst
}

// EncodeSparse is the allocating convenience form of AppendSparse.
func EncodeSparse(v []float64, idx []int, bits, chunk int, deq []float64) []byte {
	return AppendSparse(make([]byte, 0, SparseFrameBytes(idx, chunk, bits)), v, idx, bits, chunk, deq)
}

// decodeSparseBody parses a sparse frame's payload (the bytes after the
// 14-byte header) given its validated base bits, n and chunk, returning the
// sparse vector and the bytes following the frame. Every structural
// violation wraps ErrCodec, and no allocation exceeds a small multiple of
// the bytes actually present — index and code buffers are sized only after
// the payload is proven long enough to hold them.
func decodeSparseBody(body []byte, bits, n, chunk int) (*SparseVec, []byte, error) {
	if len(body) < 4 {
		return nil, nil, fmt.Errorf("%w: sparse payload %d bytes, count needs 4", ErrCodec, len(body))
	}
	k := int(binary.LittleEndian.Uint32(body[:4]))
	if k > n {
		return nil, nil, fmt.Errorf("%w: sparse count %d exceeds n %d", ErrCodec, k, n)
	}
	if k > len(body)-4 {
		return nil, nil, fmt.Errorf("%w: sparse count %d exceeds payload capacity %d", ErrCodec, k, len(body)-4)
	}
	idx := make([]int, 0, k)
	off := 4
	prev := 0
	for i := 0; i < k; i++ {
		x, m, err := uvarint32(body[off:])
		if err != nil {
			return nil, nil, fmt.Errorf("index %d: %w", i, err)
		}
		if i > 0 && x == 0 {
			return nil, nil, fmt.Errorf("%w: sparse index %d repeats its predecessor", ErrCodec, i)
		}
		if x > uint64(n) {
			return nil, nil, fmt.Errorf("%w: sparse index delta %d exceeds n %d", ErrCodec, x, n)
		}
		ix := prev + int(x)
		if i == 0 {
			ix = int(x)
		}
		if ix >= n {
			return nil, nil, fmt.Errorf("%w: sparse index %d outside [0,%d)", ErrCodec, ix, n)
		}
		idx = append(idx, ix)
		prev = ix
		off += m
	}
	groups := 0
	codeTotal := 0
	for i := 0; i < k; {
		j := groupEnd(idx, i, chunk)
		groups++
		codeTotal += codeBytes(j-i, bits)
		i = j
	}
	need := 8*groups + codeTotal
	if len(body)-off < need {
		return nil, nil, fmt.Errorf("%w: sparse blocks %d bytes, want %d", ErrCodec, len(body)-off, need)
	}
	s := &SparseVec{
		Bits:   bits,
		Chunk:  chunk,
		N:      n,
		Idx:    idx,
		Scales: make([]float64, 0, groups),
		Codes:  make([]byte, 0, codeTotal),
	}
	for i := 0; i < k; {
		j := groupEnd(idx, i, chunk)
		sc := math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
		if math.IsNaN(sc) || math.IsInf(sc, 0) || sc < 0 {
			return nil, nil, fmt.Errorf("%w: sparse chunk scale %v not a finite non-negative value", ErrCodec, sc)
		}
		s.Scales = append(s.Scales, sc)
		off += 8
		nb := codeBytes(j-i, bits)
		s.Codes = append(s.Codes, body[off:off+nb]...)
		off += nb
		i = j
	}
	return s, body[off:], nil
}
