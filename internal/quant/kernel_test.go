package quant

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// diffKernels holds the three kernels to their references on one chunk:
// scale bits, code bytes (into a garbage-filled dst, with and without deq,
// nothing written past the codes) and every dequantized value's bits —
// packCodes's fused deq and unpackCodes alike.
func diffKernels(t testing.TB, v []float64, bits int) {
	t.Helper()
	scale := chunkScale(v, bits)
	if want := refChunkScale(v, bits); math.Float64bits(scale) != math.Float64bits(want) {
		t.Fatalf("bits=%d n=%d: chunkScale %x, reference %x", bits, len(v), math.Float64bits(scale), math.Float64bits(want))
	}
	nb := codeBytes(len(v), bits)
	want := make([]byte, nb)
	refPackCodes(want, v, scale, bits)
	wantDeq := make([]float64, len(v))
	refUnpackCodes(wantDeq, want, scale, bits)

	const guard = 0xA5
	for _, withDeq := range []bool{false, true} {
		got := bytes.Repeat([]byte{guard}, nb+2)
		var deq []float64
		if withDeq {
			deq = make([]float64, len(v))
			for i := range deq {
				deq[i] = math.NaN()
			}
		}
		packCodes(got[:nb], deq, v, scale, bits)
		if !bytes.Equal(got[:nb], want) {
			t.Fatalf("bits=%d n=%d deq=%v scale=%g: codes\n got %x\nwant %x\n   v %v", bits, len(v), withDeq, scale, got[:nb], want, v)
		}
		if got[nb] != guard || got[nb+1] != guard {
			t.Fatalf("bits=%d n=%d: packCodes wrote past its %d code bytes", bits, len(v), nb)
		}
		for i := range deq {
			if math.Float64bits(deq[i]) != math.Float64bits(wantDeq[i]) {
				t.Fatalf("bits=%d n=%d: fused deq[%d] = %x, reference decode %x (v=%g scale=%g)",
					bits, len(v), i, math.Float64bits(deq[i]), math.Float64bits(wantDeq[i]), v[i], scale)
			}
		}
	}
	diffUnpack(t, want, len(v), scale, bits)
}

// diffUnpack holds unpackCodes to its reference on arbitrary code bytes —
// including the code −2^(bits−1) no encoder emits — and an arbitrary scale.
func diffUnpack(t testing.TB, src []byte, n int, scale float64, bits int) {
	t.Helper()
	got := make([]float64, n)
	for i := range got {
		got[i] = math.NaN()
	}
	want := make([]float64, n)
	unpackCodes(got, src, scale, bits)
	refUnpackCodes(want, src, scale, bits)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("bits=%d n=%d scale=%g: unpackCodes[%d] = %x, reference %x", bits, n, scale, i,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// adversarialChunks builds, for one width, the chunks whose quotients sit
// where a wrong rounding rule, a reciprocal multiply or a sloppy finiteness
// test would show.
func adversarialChunks(bits int) [][]float64 {
	mc := maxCode(bits)
	var out [][]float64
	// q = k ± 0.5 exactly for every code k, at power-of-two scales (the pin
	// mc·s makes scale = s, so (k±0.5)·s / s is exact) and at a scale that
	// is not a power of two (quotients then land near, not on, the ties).
	for _, s := range []float64{1, 0.25, 1 << 40, 0x1p-1000, 0.3, 1e-310} {
		ties := []float64{float64(mc) * s}
		for k := -mc; k <= mc; k++ {
			ties = append(ties, (float64(k)+0.5)*s, (float64(k)-0.5)*s,
				math.Nextafter((float64(k)+0.5)*s, math.Inf(1)), math.Nextafter((float64(k)+0.5)*s, math.Inf(-1)))
		}
		out = append(out, ties)
	}
	minSub := math.SmallestNonzeroFloat64
	out = append(out,
		// The largest double below one half: q + 0.5 rounds up to 1, Round does not.
		[]float64{float64(mc), 0.49999999999999994, -0.49999999999999994, 0.5, -0.5, 0, math.Copysign(0, -1)},
		[]float64{0, math.Copysign(0, -1), 0},
		// Subnormal magnitudes: scale underflows to exactly 0 …
		[]float64{minSub, -minSub, 0},
		// … or rounds to one subnormal step, pushing |q| to 1.5·mc: saturation.
		[]float64{1.49 * float64(mc) * minSub, -1.49 * float64(mc) * minSub, 3 * minSub, -minSub},
		[]float64{float64(mc) * minSub, 0.5 * float64(mc) * minSub, -2.5 * minSub, 1.5 * minSub},
		[]float64{math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64 / 2, 1, -1e300, minSub},
		[]float64{1, 2, math.NaN(), 3},
		[]float64{math.NaN()},
		[]float64{1, math.Inf(1)},
		[]float64{math.Inf(-1), 1, 2},
		[]float64{1, 2, 3, math.Float64frombits(0xFFF8000000000001)}, // negative quiet NaN
	)
	return out
}

func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for bits := 2; bits <= 8; bits++ {
		for _, v := range adversarialChunks(bits) {
			diffKernels(t, v, bits)
			// Odd and ragged prefixes move every value across byte and
			// nibble positions.
			for n := 1; n < len(v) && n <= 9; n++ {
				diffKernels(t, v[:n], bits)
				diffKernels(t, v[len(v)-n:], bits)
			}
		}
		for _, n := range []int{1, 2, 3, 255, 256, 257} {
			v := make([]float64, n)
			for trial := 0; trial < 8; trial++ {
				mag := math.Ldexp(1, rng.Intn(80)-40)
				for i := range v {
					v[i] = rng.NormFloat64() * mag
				}
				diffKernels(t, v, bits)
			}
			src := make([]byte, codeBytes(n, bits))
			rng.Read(src)
			for _, scale := range []float64{0, 1, 0.1, 1e-320, math.MaxFloat64} {
				diffUnpack(t, src, n, scale, bits)
			}
		}
	}
}

// TestKernelsThroughEncoders runs the differential at the encoder level: for
// ragged vector lengths, Encode's bytes equal a frame assembled from the
// reference kernels chunk by chunk.
func TestKernelsThroughEncoders(t *testing.T) {
	for bits := 2; bits <= 8; bits++ {
		for _, chunk := range []int{1, 2, 3, 255, 256, 257} {
			for _, n := range []int{0, 1, chunk, chunk + 1, 3*chunk - 1, 1000} {
				v := randVec(n, int64(bits*1000+chunk+n))
				want := appendHeader(nil, bits, n, chunk)
				for lo := 0; lo < n; lo += chunk {
					part := v[lo:min(lo+chunk, n)]
					scale := refChunkScale(part, bits)
					want = binary.LittleEndian.AppendUint64(want, math.Float64bits(scale))
					codes := make([]byte, codeBytes(len(part), bits))
					refPackCodes(codes, part, scale, bits)
					want = append(want, codes...)
				}
				if got := Encode(QuantizeChunks(v, bits, chunk)); !bytes.Equal(got, want) {
					t.Fatalf("bits=%d chunk=%d n=%d: Encode differs from the reference-kernel frame", bits, chunk, n)
				}
			}
		}
	}
}

// TestFusedDeqEqualsDecode pins the encoders' deq output — written from the
// code in hand — to what a decoder reconstructs from the bytes they produced,
// for the dense segment, stream and sparse forms.
func TestFusedDeqEqualsDecode(t *testing.T) {
	sameBits := func(t *testing.T, form string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: deq has %d values, decode %d", form, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: deq[%d] = %x, decode %x", form, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	for bits := 2; bits <= 8; bits++ {
		for _, chunk := range []int{1, 3, 256, 257} {
			for _, n := range []int{1, 255, 256, 257, 1031} {
				name := fmt.Sprintf("bits=%d chunk=%d n=%d", bits, chunk, n)
				v := randVec(n, int64(bits+chunk+n))
				v[n/2] = 0
				if n > 300 {
					v[300] = math.NaN() // one degenerate chunk
				}

				deq := make([]float64, n)
				seg := make([]byte, SegmentBytes(n, chunk, bits))
				if err := EncodeSegmentInto(seg, v, bits, chunk, deq); err != nil {
					t.Fatal(err)
				}
				frame := append(appendHeader(nil, bits, n, chunk), seg...)
				fr, err := Decode(frame)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sameBits(t, name+" segment", deq, fr.Vector())

				var buf bytes.Buffer
				sdeq := make([]float64, n)
				if err := EncodeStream(&buf, v, bits, chunk, sdeq); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), frame) {
					t.Fatalf("%s: stream and segment frames differ", name)
				}
				sameBits(t, name+" stream", sdeq, fr.Vector())

				idx := TopKIndices(v, n/3+1)
				spdeq := make([]float64, len(idx))
				sp, err := Decode(EncodeSparse(v, idx, bits, chunk, spdeq))
				if err != nil {
					t.Fatalf("%s sparse: %v", name, err)
				}
				dense := sp.Vector()
				stored := make([]float64, len(idx))
				for j, ix := range idx {
					stored[j] = dense[ix]
				}
				sameBits(t, name+" sparse", spdeq, stored)
			}
		}
	}
}

// FuzzQuantizeMatchesReference feeds arbitrary chunks to the differential.
// raw reads the bytes as float64 bit patterns (NaNs, infinities, subnormals
// and all); otherwise each byte pair becomes a half-integer multiple of a
// power-of-two scale, pinned by a value at mc, so quotients sit exactly on
// and next to the rounding ties.
func FuzzQuantizeMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xE0, 0x3F, 0, 0, 0, 0, 0, 0, 0xF8, 0x7F}, uint8(8), true, int8(0))
	f.Add([]byte{1, 0, 255, 255, 3, 0, 253, 255, 127, 0, 129, 255}, uint8(4), false, int8(-3))
	f.Add([]byte{5, 0, 7, 0, 9, 0}, uint8(3), false, int8(40))
	f.Fuzz(func(t *testing.T, data []byte, width uint8, raw bool, exp int8) {
		bits := 2 + int(width)%7
		var v []float64
		if raw {
			for ; len(data) >= 8; data = data[8:] {
				v = append(v, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			}
		} else {
			s := math.Ldexp(1, int(exp))
			v = append(v, float64(maxCode(bits))*s)
			for ; len(data) >= 2; data = data[2:] {
				v = append(v, float64(int16(binary.LittleEndian.Uint16(data)))/2*s)
			}
		}
		if len(v) > 4096 {
			v = v[:4096]
		}
		diffKernels(t, v, bits)
	})
}

// BenchmarkCodecKernels states the codec against memcpy: every sub-benchmark
// moves the same 250k-value vector (SetBytes counts its float64 bytes, so
// MB/s is comparable across rows) and "copy" is the baseline — the codec's
// arithmetic is one divide, one round and one multiply per value on top of
// it. Encode rows are the served-model build's form (segment encode with the
// fused deq); decode rows are the push handler's (StreamDecoder.DecodeAll).
func BenchmarkCodecKernels(b *testing.B) {
	const n, chunk = 250_000, 256
	v := randVec(n, 1)
	b.Run("copy", func(b *testing.B) {
		dst := make([]float64, n)
		b.SetBytes(8 * n)
		for i := 0; i < b.N; i++ {
			copy(dst, v)
		}
	})
	for _, bits := range []int{8, 4, 3} {
		b.Run(fmt.Sprintf("encode%d", bits), func(b *testing.B) {
			dst := make([]byte, SegmentBytes(n, chunk, bits))
			deq := make([]float64, n)
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				if err := EncodeSegmentInto(dst, v, bits, chunk, deq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, bits := range []int{8, 4, 3} {
		b.Run(fmt.Sprintf("decode%d", bits), func(b *testing.B) {
			frame := Encode(QuantizeChunks(v, bits, chunk))
			dst := make([]float64, n)
			var d StreamDecoder
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				if err := d.Reset(bytes.NewReader(frame)); err != nil {
					b.Fatal(err)
				}
				if err := d.DecodeAll(dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	idx := TopKIndices(v, n/64)
	b.Run("sparse-encode", func(b *testing.B) {
		dst := make([]byte, 0, SparseFrameBytes(idx, chunk, 4))
		deq := make([]float64, len(idx))
		b.SetBytes(8 * n)
		for i := 0; i < b.N; i++ {
			AppendSparse(dst, v, idx, 4, chunk, deq)
		}
	})
	b.Run("apply-sparse", func(b *testing.B) {
		frame := EncodeSparse(v, idx, 4, chunk, nil)
		dst := make([]float64, n)
		var d StreamDecoder
		b.SetBytes(8 * n)
		for i := 0; i < b.N; i++ {
			if err := d.Reset(bytes.NewReader(frame)); err != nil {
				b.Fatal(err)
			}
			if err := d.ApplySparse(dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}
