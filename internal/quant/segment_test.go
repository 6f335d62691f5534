package quant

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// segVec builds a deterministic vector with outliers, exact zeros and a
// degenerate all-zero chunk region so every scale path is exercised.
func segVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		switch {
		case i%97 == 0:
			v[i] = 50 * rng.NormFloat64() // outlier
		case i >= 128 && i < 192:
			v[i] = 0 // a run of zeros spanning chunk boundaries
		default:
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// The golden-bytes pin of segment encoding: a frame assembled from
// concurrently encoded chunk-aligned segments is byte-identical to the
// EncodeStream output (itself pinned byte-identical to
// Encode(QuantizeChunks(...)) in stream_test.go), for ragged and exact
// chunkings, at segment counts {1, 4, 8} and GOMAXPROCS {1, 4} — and the
// per-segment dequantized values match the sequential ones exactly.
func TestSegmentStitchGoldenBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := []struct {
		n, chunk, bits int
	}{
		{1003, 64, 8}, // ragged tail
		{1024, 64, 4}, // exact chunking
		{1003, 64, 2},
		{100, 256, 8}, // single short chunk
		{7, 3, 5},     // odd everything
		{0, 16, 8},    // empty vector
	}
	for _, tc := range cases {
		v := segVec(tc.n, int64(tc.n+tc.chunk+tc.bits))
		var want bytes.Buffer
		wantDeq := make([]float64, tc.n)
		if err := EncodeStream(&want, v, tc.bits, tc.chunk, wantDeq); err != nil {
			t.Fatalf("n=%d chunk=%d bits=%d: EncodeStream: %v", tc.n, tc.chunk, tc.bits, err)
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for _, segs := range []int{1, 4, 8} {
				e := NewEncoder(tc.bits, tc.chunk, tc.n, segs)
				frame := make([]byte, e.Size())
				deq := make([]float64, tc.n)
				var wg sync.WaitGroup
				for k := 0; k+1 < len(e.Bounds()); k++ {
					wg.Add(1)
					go func(k int) {
						defer wg.Done()
						e.EncodeSegment(frame, v, deq, k)
					}(k)
				}
				wg.Wait()
				if !bytes.Equal(frame, want.Bytes()) {
					t.Fatalf("n=%d chunk=%d bits=%d segs=%d procs=%d: stitched frame differs from sequential encode",
						tc.n, tc.chunk, tc.bits, segs, procs)
				}
				for i := range deq {
					if deq[i] != wantDeq[i] {
						t.Fatalf("n=%d chunk=%d bits=%d segs=%d: deq[%d] = %v, want %v (not bit-identical)",
							tc.n, tc.chunk, tc.bits, segs, i, deq[i], wantDeq[i])
					}
				}
			}
		}
	}
}

// Segment bounds must cover [0, n] with chunk-aligned interior boundaries,
// and the segment count is clamped to the chunk count.
func TestSegmentBoundsAlignment(t *testing.T) {
	for _, tc := range []struct {
		n, chunk, segs int
	}{
		{1003, 64, 4}, {1003, 64, 100}, {5, 8, 3}, {0, 4, 4}, {256, 256, 8},
	} {
		bounds := NewEncoder(8, tc.chunk, tc.n, tc.segs).Bounds()
		if bounds[0] != 0 || bounds[len(bounds)-1] != tc.n {
			t.Fatalf("%+v: bounds %v do not span [0,%d]", tc, bounds, tc.n)
		}
		for i := 1; i < len(bounds)-1; i++ {
			if bounds[i]%tc.chunk != 0 {
				t.Fatalf("%+v: interior boundary %d not chunk-aligned", tc, bounds[i])
			}
			if bounds[i] < bounds[i-1] {
				t.Fatalf("%+v: bounds %v not monotone", tc, bounds)
			}
		}
		if got := len(bounds) - 1; got > tc.segs || got < 1 {
			t.Fatalf("%+v: %d segments", tc, got)
		}
	}
}

// Structural misuse of the encoder is a programming error and panics —
// wrong frame, vector or deq size, bad bits/chunk, unsorted or out-of-range
// sparse indices (EncodeStream reports the same as an error; see
// TestStreamEncoderMisuse).
func TestEncoderValidation(t *testing.T) {
	v := segVec(100, 1)
	e := NewEncoder(8, 64, 100, 1)
	for name, f := range map[string]func(){
		"short frame":      func() { e.EncodeSegment(make([]byte, 10), v, nil, 0) },
		"short vector":     func() { e.EncodeSegment(make([]byte, e.Size()), v[:99], nil, 0) },
		"short deq":        func() { e.EncodeSegment(make([]byte, e.Size()), v, make([]float64, 5), 0) },
		"bits=1":           func() { NewEncoder(1, 64, 100, 1) },
		"bits=9":           func() { NewSparseEncoder(9, 64, 100, nil, 1) },
		"chunk=0":          func() { NewEncoder(8, 0, 100, 1) },
		"unsorted indices": func() { NewSparseEncoder(8, 64, 100, []int{5, 3}, 1) },
		"index past n":     func() { NewSparseEncoder(8, 64, 100, []int{100}, 1) },
		"sparse deq":       func() { EncodeSparse(v, []int{1, 2}, 8, 64, make([]float64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
