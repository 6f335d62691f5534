package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChunkedRoundTripErrorBound(t *testing.T) {
	f := func(seed int64, bitsRaw, chunkRaw uint8) bool {
		bits := 2 + int(bitsRaw%7)   // 2..8
		chunk := 1 + int(chunkRaw%9) // 1..9, forces partial last chunks
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 3
		}
		c := QuantizeChunks(v, bits, chunk)
		out := c.Dequantize()
		if len(out) != n {
			return false
		}
		for i := range v {
			bound := c.Scales[i/chunk]/2 + 1e-12
			if math.Abs(out[i]-v[i]) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// The whole point of chunking: one outlier must not destroy the resolution
// of values in other chunks.
func TestChunkingConfinesOutlierDamage(t *testing.T) {
	v := make([]float64, 512)
	for i := range v {
		v[i] = math.Sin(float64(i)) * 0.01
	}
	v[500] = 1000 // outlier in the last chunk

	wq := whole(v, 8)
	chunked := QuantizeChunks(v, 8, 128)

	// Per-vector scale is dominated by the outlier: every small value
	// collapses to code 0.
	wholeOut := wq.Dequantize()
	chunkedOut := chunked.Dequantize()
	var wholeErr, chunkedErr float64
	for i := 0; i < 128; i++ { // first chunk, far from the outlier
		wholeErr += math.Abs(wholeOut[i] - v[i])
		chunkedErr += math.Abs(chunkedOut[i] - v[i])
	}
	if chunkedErr*10 > wholeErr {
		t.Fatalf("chunked error %g not ≪ whole-vector error %g", chunkedErr, wholeErr)
	}
	// The outlier's own chunk still represents it.
	if math.Abs(chunkedOut[500]-1000) > chunked.Scales[500/128]/2+1e-9 {
		t.Fatalf("outlier lost: %v", chunkedOut[500])
	}
}

// An all-zero chunk inside a non-zero vector must encode with scale 0 and
// dequantize to exact zeros — no NaN from a 0/0 scale.
func TestAllZeroChunkNoNaN(t *testing.T) {
	v := make([]float64, 12)
	for i := 8; i < 12; i++ {
		v[i] = float64(i) // chunks 0,1 all-zero; chunk 2 non-zero
	}
	c := QuantizeChunks(v, 4, 4)
	if c.Scales[0] != 0 || c.Scales[1] != 0 {
		t.Fatalf("zero chunks must have scale 0, got %v", c.Scales)
	}
	out := c.Dequantize()
	for i, x := range out {
		if math.IsNaN(x) {
			t.Fatalf("NaN at %d: %v", i, out)
		}
	}
	for i := 0; i < 8; i++ {
		if out[i] != 0 {
			t.Fatalf("zero chunk value %d dequantized to %v", i, out[i])
		}
	}
	if math.Abs(out[11]-11) > c.Scales[2]/2+1e-12 {
		t.Fatalf("non-zero chunk mangled: %v", out)
	}
}

// Non-finite inputs degrade to a zero-scale chunk rather than poisoning the
// dequantized vector with NaN.
func TestNonFiniteChunkDegradesToZero(t *testing.T) {
	v := []float64{1, math.Inf(1), 2, 3, 0.5, -0.5, 0.25, 0.125}
	c := QuantizeChunks(v, 8, 4)
	out := c.Dequantize()
	for i, x := range out {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("non-finite survived at %d: %v", i, out)
		}
	}
	if c.Scales[0] != 0 {
		t.Fatalf("chunk with Inf must get scale 0, got %v", c.Scales[0])
	}
	// The clean second chunk is unaffected.
	if math.Abs(out[4]-0.5) > c.Scales[1]/2+1e-12 {
		t.Fatalf("clean chunk mangled: %v", out)
	}
}

// The whole-vector form shares the degenerate-scale guard.
func TestQuantizeNonFiniteVector(t *testing.T) {
	q := whole([]float64{math.NaN(), 1, 2}, 4)
	if len(q.Scales) != 1 || q.Scales[0] != 0 {
		t.Fatalf("NaN input must yield one scale 0, got %v", q.Scales)
	}
	for i, x := range q.Dequantize() {
		if x != 0 {
			t.Fatalf("degenerate vector must dequantize to zeros, got %v at %d", x, i)
		}
	}
}

func TestChunkedBytesMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 7, 256, 1000} {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		for _, bits := range []int{2, 4, 8} {
			c := QuantizeChunks(v, bits, 64)
			if got, want := c.Bytes(), len(Encode(c)); got != want {
				t.Fatalf("n=%d bits=%d: Bytes()=%d, len(Encode)=%d", n, bits, got, want)
			}
		}
	}
}

func TestChunkedMoreBitsLessError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := make([]float64, 600)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	errAt := func(bits int) float64 {
		out := QuantizeChunks(v, bits, 100).Dequantize()
		s := 0.0
		for i := range v {
			s += math.Abs(out[i] - v[i])
		}
		return s
	}
	if !(errAt(8) < errAt(4) && errAt(4) < errAt(2)) {
		t.Fatalf("error must shrink with bits: 2b=%g 4b=%g 8b=%g", errAt(2), errAt(4), errAt(8))
	}
}

func TestNumChunksAndBadArgs(t *testing.T) {
	if NumChunks(0, 4) != 0 || NumChunks(1, 4) != 1 || NumChunks(4, 4) != 1 || NumChunks(5, 4) != 2 {
		t.Fatal("NumChunks arithmetic wrong")
	}
	for _, f := range []func(){
		func() { QuantizeChunks([]float64{1}, 1, 4) },
		func() { QuantizeChunks([]float64{1}, 9, 4) },
		func() { QuantizeChunks([]float64{1}, 4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on invalid args")
				}
			}()
			f()
		}()
	}
}
