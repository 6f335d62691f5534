package quant

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Decode(Encode(q)) must reproduce the quantized vector exactly: the frame
// re-encodes byte-identically.
func TestEncodeDecodeByteIdentical(t *testing.T) {
	f := func(seed int64, bitsRaw, chunkRaw uint8) bool {
		bits := 2 + int(bitsRaw%7)
		chunk := 1 + int(chunkRaw) // 1..256
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(400) // 0 allowed
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
		}
		if n > 0 && rng.Intn(2) == 0 {
			// Exercise degenerate chunks.
			z := rng.Intn(n)
			for i := z; i < n && i < z+chunk; i++ {
				v[i] = 0
			}
		}
		c := QuantizeChunks(v, bits, chunk)
		enc := Encode(c)
		fr, err := Decode(enc)
		if err != nil || fr.IsRaw() || fr.Len() != n {
			return false
		}
		return bytes.Equal(Encode(fr.Q), enc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRawFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 17, 333} {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		fr, err := Decode(EncodeRaw(v))
		if err != nil {
			t.Fatal(err)
		}
		if !fr.IsRaw() || fr.Len() != n {
			t.Fatalf("raw frame misdecoded: raw=%v len=%d", fr.IsRaw(), fr.Len())
		}
		got := fr.Vector()
		for i := range v {
			if got[i] != v[i] {
				t.Fatalf("raw value %d: %v != %v", i, got[i], v[i])
			}
		}
	}
}

// Every corruption must surface as an error wrapping ErrCodec — never a
// panic, never silent acceptance.
func TestDecodeRejectsCorruptFrames(t *testing.T) {
	good := Encode(QuantizeChunks([]float64{1, -2, 3, 0.5, -0.25}, 4, 2))
	cases := map[string][]byte{
		"empty":         {},
		"short header":  good[:frameHeaderSize-1],
		"bad magic":     append([]byte("NOPE"), good[4:]...),
		"bad version":   flip(good, 4, 99),
		"bits=1":        flip(good, 5, 1),
		"bits=9":        flip(good, 5, 9),
		"zero chunk":    flip(flip(good, 10, 0), 11, 0),
		"truncated":     good[:len(good)-3],
		"trailing junk": append(append([]byte{}, good...), 0xAA),
	}
	// A raw frame must not carry a chunk size.
	rawBadChunk := EncodeRaw([]float64{1, 2})
	rawBadChunk[10] = 7
	cases["raw with chunk"] = rawBadChunk
	// NaN scale.
	nanScale := append([]byte{}, good...)
	binary.LittleEndian.PutUint64(nanScale[frameHeaderSize:], math.Float64bits(math.NaN()))
	cases["NaN scale"] = nanScale
	// Negative scale.
	negScale := append([]byte{}, good...)
	binary.LittleEndian.PutUint64(negScale[frameHeaderSize:], math.Float64bits(-1.0))
	cases["negative scale"] = negScale
	// Huge claimed n with a tiny payload must fail the length check, not
	// allocate gigabytes.
	hugeN := append([]byte{}, good...)
	binary.LittleEndian.PutUint32(hugeN[6:10], math.MaxUint32)
	cases["huge n truncated"] = hugeN

	for name, b := range cases {
		if _, err := Decode(b); !errors.Is(err, ErrCodec) {
			t.Fatalf("%s: want ErrCodec, got %v", name, err)
		}
	}
}

func flip(b []byte, i int, v byte) []byte {
	out := append([]byte{}, b...)
	out[i] = v
	return out
}

// Frames are self-delimiting: two frames concatenate and DecodeFirst walks
// them, while strict Decode rejects the concatenation.
func TestDecodeFirstSequencing(t *testing.T) {
	a := Encode(QuantizeChunks([]float64{1, 2, 3}, 8, 2))
	b := EncodeRaw([]float64{4, 5})
	joined := append(append([]byte{}, a...), b...)

	f1, rest, err := DecodeFirst(joined)
	if err != nil || f1.IsRaw() || f1.Len() != 3 {
		t.Fatalf("first frame: %v %v", f1, err)
	}
	f2, rest, err := DecodeFirst(rest)
	if err != nil || !f2.IsRaw() || f2.Len() != 2 {
		t.Fatalf("second frame: %v %v", f2, err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after both frames", len(rest))
	}
	if _, err := Decode(joined); !errors.Is(err, ErrCodec) {
		t.Fatalf("strict Decode must reject trailing frame, got %v", err)
	}
}

// The wire overhead at 8 bits and chunk 256 stays near 1 byte/value, the
// budget an 8-bit frame's ≥7× saving over raw float64 depends on.
func TestFrameOverhead(t *testing.T) {
	v := make([]float64, 4096)
	rng := rand.New(rand.NewSource(9))
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	c := QuantizeChunks(v, 8, 256)
	perValue := float64(len(Encode(c))) / float64(len(v))
	if perValue > 1.05 {
		t.Fatalf("8-bit wire cost %.3f bytes/value, want ≤ 1.05", perValue)
	}
}

// Len and Vector read a decoded frame back as a plain vector for the tests.

// Len returns the number of float64 values the frame describes.
func (f *Frame) Len() int {
	if f.IsSparse() {
		return f.Sparse.N
	}
	if f.IsRaw() {
		return len(f.Raw)
	}
	return f.Q.N
}

// Vector materializes the frame's values: a copy of Raw, the dequantized
// chunks, or the scatter of a sparse frame's stored values over zeros.
func (f *Frame) Vector() []float64 {
	if f.IsSparse() {
		out := make([]float64, f.Sparse.N)
		f.Sparse.AddTo(out)
		return out
	}
	if f.IsRaw() {
		return append([]float64(nil), f.Raw...)
	}
	return f.Q.Dequantize()
}
