package quant

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// forEachPath runs f on the vector kernels, when the CPU has them, and then
// on the Go twin, flipping useAVX2 in-package. Tests in this package do not
// run in parallel, so the flip is seen by f alone.
func forEachPath(f func(path string)) {
	if useAVX2 {
		f("avx2")
		useAVX2 = false
		defer func() { useAVX2 = true }()
	}
	f("go")
}

// diffKernels holds the dense chunk kernel to the references on one chunk,
// on every kernel path: scale bits, code bytes (into a garbage-filled dst,
// with and without deq, nothing written past the codes), every dequantized
// value's bits against a decode of the reference codes, and the peak
// against the largest of them — then unpackCodes alike.
func diffKernels(t testing.TB, v []float64, bits int) {
	t.Helper()
	wantScale := refChunkScale(v, bits)
	nb := codeBytes(len(v), bits)
	want := make([]byte, nb)
	refPackCodes(want, v, wantScale, bits)
	wantDeq := make([]float64, len(v))
	refUnpackCodes(wantDeq, want, wantScale, bits)
	wantPeak := 0.0
	for _, d := range wantDeq {
		wantPeak = max(wantPeak, math.Abs(d))
	}

	const guard = 0xA5
	forEachPath(func(path string) {
		for _, withDeq := range []bool{false, true} {
			got := bytes.Repeat([]byte{guard}, nb+2)
			var deq []float64
			if withDeq {
				deq = make([]float64, len(v))
				for i := range deq {
					deq[i] = math.NaN()
				}
			}
			scale, maxAbs := encodeChunk(got[:nb], deq, nil, v, nil, bits)
			peak := peakOf(scale, maxAbs, bits)
			if math.Float64bits(scale) != math.Float64bits(wantScale) {
				t.Fatalf("%s bits=%d n=%d: scale %x, reference %x", path, bits, len(v), math.Float64bits(scale), math.Float64bits(wantScale))
			}
			if !bytes.Equal(got[:nb], want) {
				t.Fatalf("%s bits=%d n=%d deq=%v scale=%g: codes\n got %x\nwant %x\n   v %v", path, bits, len(v), withDeq, scale, got[:nb], want, v)
			}
			if got[nb] != guard || got[nb+1] != guard {
				t.Fatalf("%s bits=%d n=%d: encodeChunk wrote past its %d code bytes", path, bits, len(v), nb)
			}
			if math.Float64bits(peak) != math.Float64bits(wantPeak) {
				t.Fatalf("%s bits=%d n=%d: peak %g, largest dequantized magnitude %g", path, bits, len(v), peak, wantPeak)
			}
			for i := range deq {
				if math.Float64bits(deq[i]) != math.Float64bits(wantDeq[i]) {
					t.Fatalf("%s bits=%d n=%d: fused deq[%d] = %x, reference decode %x (v=%g scale=%g)",
						path, bits, len(v), i, math.Float64bits(deq[i]), math.Float64bits(wantDeq[i]), v[i], scale)
				}
			}
		}
	})
	diffUnpack(t, want, len(v), wantScale, bits)
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
			// Tiled past 16 values, the same chunk (same scale) reaches the
			// vector kernel too.
			diffKernels(t, slices.Repeat(v, 1+35/len(v)), bits)
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

// TestKernelsThroughEncoders runs the differential at the encoder level, on
// both kernel paths: for ragged vector lengths, Encode's bytes equal a frame
// assembled from the reference kernels chunk by chunk.
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
				forEachPath(func(path string) {
					if got := Encode(QuantizeChunks(v, bits, chunk)); !bytes.Equal(got, want) {
						t.Fatalf("%s bits=%d chunk=%d n=%d: Encode differs from the reference-kernel frame", path, bits, chunk, n)
					}
				})
			}
		}
	}
}

// TestFusedDeqEqualsDecode pins the encoders' deq output — written from the
// code in hand — to what a decoder reconstructs from the bytes they produced,
// for the dense segment, stream and sparse forms, on both kernel paths.
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
				forEachPath(func(path string) {
					name := fmt.Sprintf("%s bits=%d chunk=%d n=%d", path, bits, chunk, n)
					v := randVec(n, int64(bits+chunk+n))
					v[n/2] = 0
					if n > 300 {
						v[300] = math.NaN() // one degenerate chunk
					}

					deq := make([]float64, n)
					e := NewEncoder(bits, chunk, n, 3)
					frame := make([]byte, e.Size())
					for k := len(e.Bounds()) - 2; k >= 0; k-- {
						e.EncodeSegment(frame, v, deq, k)
					}
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
				})
			}
		}
	}
}

// FuzzQuantizeMatchesReference feeds arbitrary chunks to the differential,
// on both kernel paths (diffKernels), built by fuzzValues.
func FuzzQuantizeMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xE0, 0x3F, 0, 0, 0, 0, 0, 0, 0xF8, 0x7F}, uint8(8), true, int8(0))
	f.Add([]byte{1, 0, 255, 255, 3, 0, 253, 255, 127, 0, 129, 255}, uint8(4), false, int8(-3))
	f.Add([]byte{5, 0, 7, 0, 9, 0}, uint8(3), false, int8(40))
	f.Add(rawBytes(190*minSub, -3*minSub, 150*minSub, 0, minSub, -minSub, 5*minSub, 7*minSub,
		9*minSub, -11*minSub, 13*minSub, 2*minSub, -4*minSub, 6*minSub, 8*minSub, -10*minSub, 12*minSub), uint8(6), true, int8(0))
	f.Fuzz(func(t *testing.T, data []byte, width uint8, raw bool, exp int8) {
		bits := 2 + int(width)%7
		diffKernels(t, fuzzValues(data, bits, raw, exp), bits)
	})
}

// fuzzValues turns fuzz bytes into at most 4096 values. raw reads them as
// float64 bit patterns (NaNs, infinities, subnormals and all); otherwise
// each byte pair becomes a half-integer multiple of the power-of-two scale
// 2^exp, after a first value at mc·2^exp that pins the chunk's scale there,
// so quotients sit exactly on and next to the rounding ties.
func fuzzValues(data []byte, bits int, raw bool, exp int8) []float64 {
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
	return v[:min(len(v), 4096)]
}

// BenchmarkCodecKernels states the codec against memcpy: every sub-benchmark
// moves the same 250k-value vector (SetBytes counts its float64 bytes, so
// MB/s is comparable across rows) and "copy" is the baseline — the codec's
// arithmetic is one divide, one round and one multiply per value on top of
// it. Encode rows are a segment encode with the fused deq; build rows the
// served-model build's error-fed form (EncodeErrorFed: residual add, encode,
// deq and residual fold in one pass per chunk); decode rows are
// StreamDecoder.DecodeAll, apply rows the push handler's
// StreamDecoder.ApplyDelta onto a base. Rows run on the vector kernels when
// the CPU has them.
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
			e := NewEncoder(bits, chunk, n, 1)
			dst := make([]byte, e.Size())
			deq := make([]float64, n)
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				e.EncodeSegment(dst, v, deq, 0)
			}
		})
	}
	for _, bits := range []int{8, 4} {
		b.Run(fmt.Sprintf("build%d", bits), func(b *testing.B) {
			e := NewEncoder(bits, chunk, n, 1)
			dst := make([]byte, e.Size())
			carry, deq, next := randVec(n, 3), make([]float64, n), make([]float64, n)
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				e.EncodeErrorFed(dst, v, carry, deq, next, 0)
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
		e := NewSparseEncoder(4, chunk, n, idx, 1)
		dst := make([]byte, e.Size())
		deq := make([]float64, len(idx))
		b.SetBytes(8 * n)
		for i := 0; i < b.N; i++ {
			e.EncodeSegment(dst, v, deq, 0)
		}
	})
	for name, frame := range map[string][]byte{
		"apply8":       Encode(QuantizeChunks(v, 8, chunk)),
		"apply4":       Encode(QuantizeChunks(v, 4, chunk)),
		"apply-sparse": EncodeSparse(v, idx, 4, chunk, nil),
	} {
		b.Run(name, func(b *testing.B) {
			dst, base := make([]float64, n), randVec(n, 2)
			var d StreamDecoder
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				if err := d.Reset(bytes.NewReader(frame)); err != nil {
					b.Fatal(err)
				}
				if err := d.ApplyDelta(dst, base, math.MaxFloat64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
