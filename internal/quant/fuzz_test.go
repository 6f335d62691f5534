package quant

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// FuzzDecode throws arbitrary bytes at every way of consuming a frame:
// Decode (the stream decoder's Frame over the slice), DecodeAll and
// ApplyDelta. Invariants:
//
//   - nothing panics, whatever the input;
//   - every rejection wraps ErrCodec (callers branch on errors.Is);
//   - allocations stay proportional to the input (the large-frame guard
//     below only caps the *harness's* dense materialization — the decoder
//     itself must bound allocation before trusting any header field);
//   - an accepted frame re-encodes byte-identically (canonical encoding);
//   - DecodeAll accepts exactly what Decode accepts, with identical values
//     (modulo trailing bytes, which only strict Decode polices);
//   - on every accepted quantized frame, ApplyDelta onto zeros with limit
//     +Inf equals DecodeAll bit for bit; an accepted raw frame is refused
//     as a delta.
//
// `make fuzz` runs this seeded corpus plus a short live-fuzz pass in CI.
func FuzzDecode(f *testing.F) {
	for _, b := range goldenFrames() {
		f.Add(b)
		f.Add(b[:len(b)-1])       // truncated payload
		f.Add(append(b, 0x7)[1:]) // sheared framing
	}
	sv, idx := goldenSparseInput()
	hostile := EncodeSparse(sv, idx, 2, 3, nil)
	f.Add(hostile)
	f.Add([]byte("FPQ1"))
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := Decode(b)
		if err != nil {
			if !errors.Is(err, ErrCodec) {
				t.Fatalf("Decode error does not wrap ErrCodec: %v", err)
			}
		} else {
			var re []byte
			switch {
			case fr.IsSparse():
				re = encodeSparseVec(fr.Sparse)
			case fr.IsRaw():
				re = EncodeRaw(fr.Raw)
			default:
				re = Encode(fr.Q)
			}
			if !bytes.Equal(re, b) {
				t.Fatalf("accepted frame re-encodes differently (%d → %d bytes)", len(b), len(re))
			}
		}

		d, serr := NewStreamDecoder(bytes.NewReader(b))
		if serr != nil {
			if !errors.Is(serr, ErrCodec) {
				t.Fatalf("stream header error does not wrap ErrCodec: %v", serr)
			}
			if err == nil {
				t.Fatalf("Decode accepted a frame the stream header rejects: %v", serr)
			}
			return
		}
		if d.Len() > maxTestFrameLen {
			// Materializing n values densely is the harness's cost, not the
			// decoder's, so skip the dense value comparison for huge n. Only
			// a sparse frame can legitimately be accepted at this size from
			// a short input — dense and raw payloads must carry ~n bytes,
			// while a sparse frame's size scales with k, not n — so anything
			// non-sparse accepted here is an over-trusting header parse.
			if err == nil {
				if !fr.IsSparse() {
					t.Fatalf("Decode accepted a non-sparse %d-value frame from %d bytes", d.Len(), len(b))
				}
				if !d.IsSparse() || d.Len() != fr.Sparse.N ||
					d.Bits() != fr.Sparse.Bits || d.Chunk() != fr.Sparse.Chunk {
					t.Fatalf("stream header (sparse=%v n=%d bits=%d chunk=%d) disagrees with accepted sparse frame (n=%d bits=%d chunk=%d)",
						d.IsSparse(), d.Len(), d.Bits(), d.Chunk(),
						fr.Sparse.N, fr.Sparse.Bits, fr.Sparse.Chunk)
				}
			}
			return
		}
		dst := make([]float64, d.Len())
		derr := d.DecodeAll(dst)
		if derr != nil && !errors.Is(derr, ErrCodec) {
			t.Fatalf("stream decode error does not wrap ErrCodec: %v", derr)
		}
		if err == nil {
			if derr != nil {
				t.Fatalf("DecodeAll rejected a frame Decode accepts: %v", derr)
			}
			// Bit patterns, not ==: a raw frame may carry NaNs.
			want := fr.Vector()
			if len(dst) != len(want) {
				t.Fatalf("stream decoded %d values, buffered %d", len(dst), len(want))
			}
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
					t.Fatalf("DecodeAll and Decode disagree on value %d", i)
				}
			}
			ad, aerr := NewStreamDecoder(bytes.NewReader(b))
			if aerr != nil {
				t.Fatalf("second header read failed: %v", aerr)
			}
			onto := make([]float64, ad.Len())
			aerr = ad.ApplyDelta(onto, onto, math.Inf(1))
			if fr.IsRaw() {
				if !errors.Is(aerr, ErrCodec) {
					t.Fatalf("ApplyDelta on a raw frame: %v, want ErrCodec", aerr)
				}
				return
			}
			if aerr != nil {
				t.Fatalf("ApplyDelta onto zeros rejected an accepted frame: %v", aerr)
			}
			for i := range onto {
				if math.Float64bits(onto[i]) != math.Float64bits(dst[i]) {
					t.Fatalf("ApplyDelta onto zeros and DecodeAll disagree on value %d: %x vs %x",
						i, math.Float64bits(onto[i]), math.Float64bits(dst[i]))
				}
			}
		}
	})
}

// encodeSparseVec serializes a decoded sparse frame back to wire bytes from
// its indices, scales and codes as they stand — the canonical-encoding
// reference, written from the layout in sparse.go.
func encodeSparseVec(s *SparseVec) []byte {
	b := appendHeader(nil, sparseFlag|s.Bits, s.N, s.Chunk)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Idx)))
	prev := 0
	for _, ix := range s.Idx {
		b = binary.AppendUvarint(b, uint64(ix-prev))
		prev = ix
	}
	off := 0
	for i, g := 0, 0; i < len(s.Idx); g++ {
		j := groupEnd(s.Idx, i, s.Chunk)
		nb := codeBytes(j-i, s.Bits)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Scales[g]))
		b = append(b, s.Codes[off:off+nb]...)
		off, i = off+nb, j
	}
	return b
}
