package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundTripErrorBound(t *testing.T) {
	f := func(seed int64, bitsRaw uint8) bool {
		bits := 2 + int(bitsRaw%7) // 2..8
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 3
		}
		q := Quantize(v, bits)
		out := q.Dequantize()
		if len(out) != n {
			return false
		}
		for i := range v {
			if math.Abs(out[i]-v[i]) > q.Scale/2+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroVector(t *testing.T) {
	q := Quantize(make([]float64, 17), 4)
	out := q.Dequantize()
	for _, v := range out {
		if v != 0 {
			t.Fatal("zero vector must round-trip to zero")
		}
	}
}

func TestMoreBitsLessError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, 500)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	errAt := func(bits int) float64 {
		q := Quantize(v, bits)
		out := q.Dequantize()
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

func TestBytesAndCompressRatio(t *testing.T) {
	v := make([]float64, 800)
	q8 := Quantize(v, 8)
	q4 := Quantize(v, 4)
	q2 := Quantize(v, 2)
	if q8.Bytes() <= q4.Bytes() || q4.Bytes() <= q2.Bytes() {
		t.Fatalf("bytes must grow with bits: %d %d %d", q2.Bytes(), q4.Bytes(), q8.Bytes())
	}
	// 4-bit packs two codes per byte: 800 codes = 400 bytes, plus the
	// 13-byte header (1 bits + 4 n + 8 scale).
	if got, want := q4.Bytes(), 400+13; got != want {
		t.Fatalf("4-bit size = %d, want %d", got, want)
	}
}

func TestExtremesSaturate(t *testing.T) {
	v := []float64{-10, -5, 0, 5, 10}
	q := Quantize(v, 3) // max code 3, scale 10/3
	out := q.Dequantize()
	if math.Abs(out[4]-10) > 1e-9 || math.Abs(out[0]+10) > 1e-9 {
		t.Fatalf("extremes must be exactly representable: %v", out)
	}
	if out[2] != 0 {
		t.Fatalf("zero must survive: %v", out)
	}
}

func TestBitsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Quantize([]float64{1}, 9)
}

func TestSignedValuesAcrossByteBoundaries(t *testing.T) {
	// 3-bit codes straddle byte boundaries; verify negative values survive.
	v := []float64{-3, 3, -1, 1, -2, 2, -3, 3, -1}
	q := Quantize(v, 3)
	out := q.Dequantize()
	for i := range v {
		if math.Abs(out[i]-v[i]) > q.Scale/2+1e-12 {
			t.Fatalf("value %d: %v -> %v (scale %v)", i, v[i], out[i], q.Scale)
		}
	}
}
