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

// The golden-bytes pin of the tentpole: a frame assembled from concurrently
// encoded chunk-aligned segments is byte-identical to the sequential
// EncodeStream output (which is itself pinned byte-identical to
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
				bounds := SegmentBounds(tc.n, tc.chunk, segs)
				if bounds[0] != 0 || bounds[len(bounds)-1] != tc.n {
					t.Fatalf("bounds %v do not cover [0,%d]", bounds, tc.n)
				}
				body := make([]byte, FrameBytes(tc.n, tc.chunk, tc.bits))
				if err := PutFrameHeader(body[:FrameHeaderSize], tc.bits, tc.n, tc.chunk); err != nil {
					t.Fatal(err)
				}
				deq := make([]float64, tc.n)
				var wg sync.WaitGroup
				errs := make([]error, len(bounds)-1)
				for k := 0; k+1 < len(bounds); k++ {
					lo, hi := bounds[k], bounds[k+1]
					wg.Add(1)
					go func(k, lo, hi int) {
						defer wg.Done()
						blo := FrameHeaderSize + SegmentBytes(lo, tc.chunk, tc.bits)
						bhi := FrameHeaderSize + SegmentBytes(hi, tc.chunk, tc.bits)
						errs[k] = EncodeSegmentInto(body[blo:bhi], v[lo:hi], tc.bits, tc.chunk, deq[lo:hi])
					}(k, lo, hi)
				}
				wg.Wait()
				for k, err := range errs {
					if err != nil {
						t.Fatalf("segment %d: %v", k, err)
					}
				}
				if !bytes.Equal(body, want.Bytes()) {
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

// SegmentBounds must produce chunk-aligned interior boundaries and clamp the
// segment count.
func TestSegmentBoundsAlignment(t *testing.T) {
	for _, tc := range []struct {
		n, chunk, segs int
	}{
		{1003, 64, 4}, {1003, 64, 100}, {5, 8, 3}, {0, 4, 4}, {256, 256, 8},
	} {
		bounds := SegmentBounds(tc.n, tc.chunk, tc.segs)
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
		if got := len(bounds) - 1; got > tc.segs || (tc.n > 0 && got < 1) {
			t.Fatalf("%+v: %d segments", tc, got)
		}
	}
}

// Structural misuse must error, not corrupt: wrong dst size, wrong deq size,
// bad bits/chunk.
func TestEncodeSegmentIntoValidation(t *testing.T) {
	v := segVec(100, 1)
	if err := EncodeSegmentInto(make([]byte, 10), v, 8, 64, nil); err == nil {
		t.Fatal("wrong dst size accepted")
	}
	if err := EncodeSegmentInto(make([]byte, SegmentBytes(100, 64, 8)), v, 8, 64, make([]float64, 5)); err == nil {
		t.Fatal("wrong deq size accepted")
	}
	if err := EncodeSegmentInto(nil, nil, 1, 64, nil); err == nil {
		t.Fatal("bits=1 accepted")
	}
	if err := EncodeSegmentInto(nil, nil, 8, 0, nil); err == nil {
		t.Fatal("chunk=0 accepted")
	}
	if err := PutFrameHeader(make([]byte, 3), 8, 100, 64); err == nil {
		t.Fatal("short header dst accepted")
	}
}
