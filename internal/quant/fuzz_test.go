package quant

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// FuzzDecode throws arbitrary bytes at both decode paths. Invariants:
//
//   - neither path panics, whatever the input;
//   - every rejection wraps ErrCodec (callers branch on errors.Is);
//   - allocations stay proportional to the input (the large-frame guard
//     below only caps the *harness's* dense materialization — the decoders
//     themselves must bound allocation before trusting any header field);
//   - an accepted frame re-encodes byte-identically (canonical encoding);
//   - the streaming decoder accepts exactly what the buffered decoder
//     accepts, with identical values (modulo trailing bytes, which only the
//     strict buffered path polices).
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
				re = fr.Sparse.Encode()
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
				t.Fatalf("buffered path accepted a frame the stream header rejects: %v", serr)
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
					t.Fatalf("buffered path accepted a non-sparse %d-value frame from %d bytes", d.Len(), len(b))
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
				t.Fatalf("stream path rejected a frame the buffered path accepts: %v", derr)
			}
			// Bit patterns, not ==: a raw frame may carry NaNs.
			want := fr.Vector()
			if len(dst) != len(want) {
				t.Fatalf("stream decoded %d values, buffered %d", len(dst), len(want))
			}
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
					t.Fatalf("stream and buffered decodes disagree on value %d", i)
				}
			}
		}
	})
}
