package quant

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// sparseTestVec builds a deterministic dense vector with a heavy-tailed
// magnitude profile, the shape sparsification exploits.
func sparseTestVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(4)-2))
	}
	return v
}

// TopKIndices must pick the k largest magnitudes with ties broken by
// ascending index, never select exact zeros, and return ascending indices.
func TestTopKIndicesDeterministic(t *testing.T) {
	v := []float64{0, 3, -3, 1, 3, 0, -5, 0.5}
	got := TopKIndices(v, 3)
	// |−5| is largest; the 3s at indices 1, 2, 4 tie at the threshold and
	// ascending order takes 1 then 2.
	want := []int{1, 2, 6}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopKIndices = %v, want %v", got, want)
	}
	if got := TopKIndices(v, 100); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 6, 7}) {
		t.Fatalf("k past nonzero count must return all nonzero ascending, got %v", got)
	}
	if got := TopKIndices(v, 0); got != nil {
		t.Fatalf("k=0 must return nil, got %v", got)
	}
	if got := TopKIndices([]float64{0, 0, math.NaN(), math.Inf(1)}, 2); got != nil {
		t.Fatalf("zeros and non-finite values must never be selected, got %v", got)
	}
	// Property: against a sort-based oracle on random vectors.
	f := func(seed int64, kRaw uint8) bool {
		v := sparseTestVec(1+int(kRaw)%200, seed)
		k := 1 + int(kRaw)%20
		got := TopKIndices(v, k)
		// Oracle: stable sort by (|v| desc, index asc), take k, sort asc.
		type mi struct {
			a float64
			i int
		}
		all := make([]mi, 0, len(v))
		for i, x := range v {
			if finiteNonzero(x) {
				all = append(all, mi{math.Abs(x), i})
			}
		}
		for i := 1; i < len(all); i++ { // insertion sort, stable
			for j := i; j > 0 && all[j].a > all[j-1].a; j-- {
				all[j], all[j-1] = all[j-1], all[j]
			}
		}
		if k > len(all) {
			k = len(all)
		}
		want := make([]int, 0, k)
		for _, m := range all[:k] {
			want = append(want, m.i)
		}
		sortInts(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// A sparse frame must round-trip: decode yields the selected indices, the
// re-encoding is byte-identical, and the dequantized dense vector is zero
// off-support with per-value error bounded by each chunk's scale.
func TestSparseRoundTrip(t *testing.T) {
	f := func(seed int64, bitsRaw, chunkRaw, kRaw uint8) bool {
		bits := 2 + int(bitsRaw%7)
		chunk := 1 + int(chunkRaw)
		n := 1 + int(uint(seed)%500)
		v := sparseTestVec(n, seed)
		idx := TopKIndices(v, 1+int(kRaw)%60)
		deq := make([]float64, len(idx))
		enc := EncodeSparse(v, idx, bits, chunk, deq)
		if len(enc) != NewSparseEncoder(bits, chunk, n, idx, 1).Size() {
			return false
		}
		fr, err := Decode(enc)
		if err != nil || !fr.IsSparse() || fr.IsRaw() || fr.Bits != bits || fr.Chunk != chunk || fr.Len() != n {
			return false
		}
		if !reflect.DeepEqual(fr.Sparse.Idx, idx) {
			return false
		}
		if !bytes.Equal(encodeSparseVec(fr.Sparse), enc) {
			return false
		}
		dense := fr.Vector()
		on := make(map[int]bool, len(idx))
		for j, ix := range idx {
			on[ix] = true
			if dense[ix] != deq[j] { // decoder must agree with encoder's deq
				return false
			}
		}
		for i, x := range dense {
			if !on[i] && x != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// An empty selection (k = 0) is a valid frame that decodes to all zeros.
func TestSparseEmptySelection(t *testing.T) {
	v := []float64{1, 2, 3}
	enc := EncodeSparse(v, nil, 4, 2, nil)
	fr, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.IsSparse() || fr.Len() != 3 || len(fr.Sparse.Idx) != 0 {
		t.Fatalf("empty sparse frame misdecoded: %+v", fr)
	}
	for i, x := range fr.Vector() {
		if x != 0 {
			t.Fatalf("value %d = %v, want 0", i, x)
		}
	}
}

// Segment-parallel sparse encoding must stitch byte-identically to the
// one-segment encode, including the per-index deq values — the identity the
// fldist serve plane's parallel delta builds rely on.
func TestSparseSegmentStitchIdentity(t *testing.T) {
	for _, n := range []int{1, 7, 256, 1000, 2254} {
		for _, segments := range []int{1, 2, 3, 5, 8} {
			v := sparseTestVec(n, int64(n)*31+int64(segments))
			idx := TopKIndices(v, n/8+1)
			bits, chunk := 4, 64
			wantDeq := make([]float64, len(idx))
			want := EncodeSparse(v, idx, bits, chunk, wantDeq)

			e := NewSparseEncoder(bits, chunk, n, idx, segments)
			got := make([]byte, e.Size())
			gotDeq := make([]float64, len(idx))
			done := make(chan struct{})
			for k := 0; k+1 < len(e.Bounds()); k++ {
				go func(k int) {
					e.EncodeSegment(got, v, gotDeq, k)
					done <- struct{}{}
				}(k)
			}
			for k := 0; k+1 < len(e.Bounds()); k++ {
				<-done
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d segments=%d: stitched bytes differ from sequential encode", n, segments)
			}
			if !reflect.DeepEqual(gotDeq, wantDeq) {
				t.Fatalf("n=%d segments=%d: stitched deq differs from sequential encode", n, segments)
			}
		}
	}
}

// Streaming sparse decode must agree with Decode, through both a
// native io.ByteReader and a bare io.Reader, and ApplyDelta must honor the
// EF apply semantics (scatter-add onto a non-zero base).
func TestStreamSparseApply(t *testing.T) {
	n := 777
	v := sparseTestVec(n, 5)
	idx := TopKIndices(v, 99)
	enc := EncodeSparse(v, idx, 4, 32, nil)
	fr, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	dense := fr.Vector()

	base := sparseTestVec(n, 6)
	want := make([]float64, n)
	for i := range want {
		want[i] = base[i] + dense[i]
	}

	for name, mk := range map[string]func() io.Reader{
		"byte reader": func() io.Reader { return bufio.NewReader(bytes.NewReader(enc)) },
		"bare reader": func() io.Reader { return struct{ io.Reader }{bytes.NewReader(enc)} },
	} {
		d, err := NewStreamDecoder(mk())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !d.IsSparse() || d.IsRaw() || d.Bits() != 4 || d.Chunk() != 32 || d.Len() != n {
			t.Fatalf("%s: sparse header misparsed", name)
		}
		got := append([]float64(nil), base...)
		if err := d.ApplyDelta(got, got, math.MaxFloat64); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ApplyDelta disagrees with Decode", name)
		}
		if err := d.ApplyDelta(got, got, math.MaxFloat64); err == nil {
			t.Fatalf("%s: second ApplyDelta must fail", name)
		}
		// Into a separate dst, the unstored coordinates come from base,
		// which is left as it was.
		d, err = NewStreamDecoder(mk())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, keep := make([]float64, n), append([]float64(nil), base...)
		if err := d.ApplyDelta(out, base, math.MaxFloat64); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(out, want) || !reflect.DeepEqual(base, keep) {
			t.Fatalf("%s: ApplyDelta into a separate dst disagrees or wrote base", name)
		}
	}

	// DecodeAll materializes the dense vector.
	d, err := NewStreamDecoder(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n)
	for i := range got {
		got[i] = 42 // must be overwritten, not added to
	}
	if err := d.DecodeAll(got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, dense) {
		t.Fatal("DecodeAll on sparse frame disagrees with Decode")
	}
}

// Every malformed sparse frame must surface ErrCodec from both decode paths
// — never a panic, never silent acceptance, never an oversized allocation.
func TestSparseDecodeRejectsCorruptFrames(t *testing.T) {
	v := sparseTestVec(300, 7)
	idx := TopKIndices(v, 40)
	good := EncodeSparse(v, idx, 4, 64, nil)

	cases := map[string][]byte{
		"sparse raw bits":  flip(good, 5, 0x80),   // flag with base bits 0
		"sparse bits 9":    flip(good, 5, 0x80|9), // flag with base out of range
		"zero chunk":       flip(flip(good, 10, 0), 11, 0),
		"count only":       good[:FrameHeaderSize+2], // truncated k field
		"truncated index":  good[:FrameHeaderSize+4+3],
		"truncated blocks": good[:len(good)-5],
		"trailing junk":    append(append([]byte{}, good...), 0x00),
	}
	// k exceeding n must fail before any index allocation.
	hugeK := append([]byte{}, good...)
	binary.LittleEndian.PutUint32(hugeK[FrameHeaderSize:], math.MaxUint32)
	cases["huge count"] = hugeK
	// k exceeding the bytes present must fail even when k ≤ n.
	bigN := append([]byte{}, good...)
	binary.LittleEndian.PutUint32(bigN[6:10], math.MaxUint32)
	binary.LittleEndian.PutUint32(bigN[FrameHeaderSize:], math.MaxUint32)
	cases["count past payload"] = bigN
	// A zero delta after the first index duplicates its predecessor.
	dupIdx := append([]byte{}, good...)
	dupIdx[FrameHeaderSize+4+1] = 0
	cases["duplicate index"] = dupIdx
	// An index delta pushing past n.
	overIdx := append([]byte{}, good...)
	overIdx[FrameHeaderSize+4] = 0xAC // 5-byte varint: way past n
	overIdx[FrameHeaderSize+4+1] = 0xDA
	overIdx[FrameHeaderSize+4+2] = 0xBC
	overIdx[FrameHeaderSize+4+3] = 0x8A
	cases["index out of range"] = overIdx
	// Overlong (non-canonical) varint encoding of a small delta.
	overlong := append([]byte{}, good...)
	overlong[FrameHeaderSize+4] = 0x80
	overlong[FrameHeaderSize+4+1] = 0x00
	cases["overlong varint"] = overlong
	// Non-finite chunk scale: locate the first block (after the varints).
	varBytes := 0
	prev := 0
	for _, ix := range idx {
		varBytes += uvarintLen(uint64(ix - prev))
		prev = ix
	}
	badScale := append([]byte{}, good...)
	binary.LittleEndian.PutUint64(badScale[FrameHeaderSize+4+varBytes:], math.Float64bits(math.NaN()))
	cases["NaN scale"] = badScale

	for name, b := range cases {
		if _, err := Decode(b); !errors.Is(err, ErrCodec) {
			t.Fatalf("Decode %s: want ErrCodec, got %v", name, err)
		}
		d, err := NewStreamDecoder(bytes.NewReader(b))
		if err != nil {
			if !errors.Is(err, ErrCodec) {
				t.Fatalf("stream header %s: want ErrCodec, got %v", name, err)
			}
			continue
		}
		if !d.IsSparse() {
			continue // corrupted into a non-sparse form; other tests cover it
		}
		// The declared length is the attacker's: never materialize it. A
		// receiver knows the vector length it expects, so a frame declaring
		// more than any model here holds must die on ApplyDelta's shape
		// check against a short dst, before a payload byte is read.
		n := d.Len()
		if n > maxTestFrameLen {
			n = 1
		}
		dst := make([]float64, n)
		if err := d.ApplyDelta(dst, dst, math.MaxFloat64); err == nil {
			// Streamed decoders cannot see trailing junk; strict framing is
			// strict Decode's job.
			if name != "trailing junk" {
				t.Fatalf("stream %s: want error, got nil", name)
			}
		} else if !errors.Is(err, ErrCodec) {
			t.Fatalf("stream %s: want ErrCodec, got %v", name, err)
		}
	}
}

// A dense-legacy decoder (bits validation from before the sparse form) must
// reject the flagged bits byte — pinned here against the frozen set of
// legal dense values so the compatibility story cannot silently rot.
func TestSparseBitsByteOutsideDenseRange(t *testing.T) {
	enc := EncodeSparse([]float64{1, 2, 3, 4}, []int{1, 3}, 4, 2, nil)
	b := enc[5]
	if b&sparseFlag == 0 {
		t.Fatalf("sparse frame bits byte %#x lacks the flag bit", b)
	}
	legalDense := map[byte]bool{0: true}
	for v := byte(2); v <= 8; v++ {
		legalDense[v] = true
	}
	if legalDense[b] {
		t.Fatalf("sparse bits byte %#x collides with a legal dense value", b)
	}
}
