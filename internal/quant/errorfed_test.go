package quant

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The fused error-fed encode (Encoder.EncodeErrorFed) and the vector apply
// (applyCodes under StreamDecoder.ApplyDelta), held to the passes they
// replace: the residual add v = p + carry, EncodeSegment, and the residual
// fold next = v − deq, run on the Go twin.

const minSub = math.SmallestNonzeroFloat64

// rawBytes is the little-endian bit patterns of v: raw fuzz input.
func rawBytes(v ...float64) []byte {
	var b []byte
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// goTwin runs f with the vector kernels switched off.
func goTwin(f func()) {
	saved := useAVX2
	useAVX2 = false
	defer func() { useAVX2 = saved }()
	f()
}

// nanVec returns n NaNs: output slices start as garbage no kernel writes.
func nanVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.NaN()
	}
	return v
}

// firstDiff returns the first index where a and b differ in bits, or −1.
func firstDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// diffErrorFed holds EncodeErrorFed of p + carry (carry may be nil) at
// bits/chunk over segs segments, on every kernel path, to the three Go
// passes: frame bytes, deq and next bits, and the returned peak against
// the largest |deq|. Without a carry, next is p itself, the in-place form
// of an error-fed sender. The frame then goes through ApplyDelta onto p
// under a limit that lim picks — MaxFloat64 at 0, else just under the
// magnitude of the sum at index lim mod n — and every path must report the
// same failing index, or write the same sums, out of place and in place.
func diffErrorFed(t testing.TB, p, carry []float64, bits, chunk, segs, lim int) {
	t.Helper()
	n := len(p)
	name := fmt.Sprintf("bits=%d chunk=%d n=%d segs=%d carry=%v", bits, chunk, n, segs, carry != nil)
	var frame0 []byte
	deq0, next0 := make([]float64, n), make([]float64, n)
	goTwin(func() {
		v := slices.Clone(p)
		for i := range carry {
			v[i] = p[i] + carry[i]
		}
		frame0 = NewEncoder(bits, chunk, n, 1).EncodeAll(v, deq0)
		for i, d := range deq0 {
			next0[i] = v[i] - d
		}
	})
	peak0 := 0.0
	for _, d := range deq0 {
		peak0 = max(peak0, math.Abs(d))
	}

	forEachPath(func(path string) {
		e := NewEncoder(bits, chunk, n, segs)
		frame := bytes.Repeat([]byte{0xA5}, e.Size())
		deq, next, in := nanVec(n), nanVec(n), p
		if carry == nil {
			copy(next, p)
			in = next
		}
		peak := 0.0
		for k := len(e.Bounds()) - 2; k >= 0; k-- {
			peak = max(peak, e.EncodeErrorFed(frame, in, carry, deq, next, k))
		}
		if !bytes.Equal(frame, frame0) {
			t.Fatalf("%s %s: fused frame differs from the three passes'", path, name)
		}
		if i := firstDiff(deq, deq0); i >= 0 {
			t.Fatalf("%s %s: deq[%d] = %x, three passes %x", path, name, i, math.Float64bits(deq[i]), math.Float64bits(deq0[i]))
		}
		if i := firstDiff(next, next0); i >= 0 {
			t.Fatalf("%s %s: next[%d] = %x, three passes %x (p %x)", path, name, i, math.Float64bits(next[i]), math.Float64bits(next0[i]), math.Float64bits(p[i]))
		}
		if math.Float64bits(peak) != math.Float64bits(peak0) {
			t.Fatalf("%s %s: peak %g, largest |deq| %g", path, name, peak, peak0)
		}
	})

	limit := math.MaxFloat64
	if lim > 0 && n > 0 {
		limit = math.Nextafter(math.Abs(p[lim%n]+deq0[lim%n]), 0)
	}
	apply := func(inPlace bool) ([]float64, string) {
		dst, base := nanVec(n), p
		if inPlace {
			dst = slices.Clone(p)
			base = dst
		}
		d, err := NewStreamDecoder(bytes.NewReader(frame0))
		if err == nil {
			err = d.ApplyDelta(dst, base, limit)
		}
		if err != nil {
			return nil, err.Error()
		}
		return dst, ""
	}
	var want []float64
	var wantErr string
	goTwin(func() { want, wantErr = apply(false) })
	forEachPath(func(path string) {
		for _, inPlace := range []bool{false, true} {
			got, gotErr := apply(inPlace)
			if gotErr != wantErr {
				t.Fatalf("%s %s in-place=%v limit=%g: ApplyDelta error %q, Go twin %q", path, name, inPlace, limit, gotErr, wantErr)
			}
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("%s %s in-place=%v: ApplyDelta[%d] = %x, Go twin %x", path, name, inPlace, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}

// TestErrorFedMatchesThreePasses runs the differential over every width,
// chunk lengths around the vector kernels' 16-value step, ragged vectors,
// and carries that are absent, ordinary, or non-finite.
func TestErrorFedMatchesThreePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for bits := 2; bits <= 8; bits++ {
		for _, chunk := range []int{1, 3, 15, 16, 17, 64, 256, 257} {
			for _, n := range []int{0, 1, 15, 37, 256, 1031} {
				p := randVec(n, int64(bits*7919+chunk*31+n))
				carry := make([]float64, n)
				for i := range carry {
					carry[i] = rng.NormFloat64() * 1e-3
				}
				if n > 1000 {
					p[300] = math.Inf(-1) // a non-finite chunk
					carry[700] = math.NaN()
					// Both NaN: the sum keeps p's payload.
					p[1000], carry[1000] = math.Float64frombits(0x7FF8000000000003), math.Float64frombits(0xFFF8000000000005)
				}
				for segs := 1; segs <= 3; segs++ {
					diffErrorFed(t, p, nil, bits, chunk, segs, 0)
					diffErrorFed(t, p, carry, bits, chunk, segs, n/3)
				}
			}
		}
	}
}

// TestErrorFedNegativeZero pins the +0 rule: a value whose quotient
// truncates to −0 — a small negative value, or −0 itself — gets code 0,
// which dequantizes to +0 as float64(0)·scale does, so its residual keeps
// the value's own bits: −0.3 stays −0.3 and −0 stays −0. Trunc's −0 carried
// into deq would make that residual +0.
func TestErrorFedNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, bits := range []int{8, 4} {
		p := make([]float64, 35)
		p[0] = float64(maxCode(bits)) // scale 1
		p[1], p[2], p[17], p[33] = -0.3, negZero, -0.49999999999999994, negZero
		carry := make([]float64, len(p))
		p[3], carry[3] = negZero, negZero // −0 + −0 = −0; +0 carries make the others +0
		for _, c := range [][]float64{nil, carry} {
			forEachPath(func(path string) {
				e := NewEncoder(bits, len(p), len(p), 1)
				frame, deq, next := make([]byte, e.Size()), nanVec(len(p)), nanVec(len(p))
				e.EncodeErrorFed(frame, p, c, deq, next, 0)
				for _, i := range []int{1, 2, 3, 17, 33} {
					v := p[i]
					if c != nil {
						v += c[i]
					}
					if math.Float64bits(deq[i]) != 0 {
						t.Fatalf("%s bits=%d: deq[%d] = %x for v = %g, want +0", path, bits, i, math.Float64bits(deq[i]), v)
					}
					if math.Float64bits(next[i]) != math.Float64bits(v) {
						t.Fatalf("%s bits=%d: next[%d] = %x, want v's own bits %x", path, bits, i, math.Float64bits(next[i]), math.Float64bits(v))
					}
				}
			})
		}
		diffErrorFed(t, p, nil, bits, len(p), 1, 0)
		diffErrorFed(t, p, carry, bits, 16, 2, 0)
	}
}

// TestApplyReportsFirstFailingIndex: the bound error names the first value
// whose sum leaves the limit — mid-group, past a NaN base later on — on
// every kernel path.
func TestApplyReportsFirstFailingIndex(t *testing.T) {
	for _, bits := range []int{8, 4} {
		v := randVec(100, 5)
		frame := NewEncoder(bits, 64, len(v), 1).EncodeAll(v, nil)
		base := make([]float64, len(v))
		base[70] = math.NaN()
		for _, tc := range []struct {
			at   int // where a value beyond the limit sits, or −1
			want string
		}{{37, "index 37 "}, {69, "index 69 "}, {-1, "index 70 "}} {
			if tc.at >= 0 {
				base[tc.at] = 1e300
			}
			forEachPath(func(path string) {
				d, err := NewStreamDecoder(bytes.NewReader(frame))
				if err == nil {
					err = d.ApplyDelta(make([]float64, len(v)), base, 1e299)
				}
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s bits=%d: ApplyDelta error %v, want one naming %q", path, bits, err, tc.want)
				}
			})
			if tc.at >= 0 {
				base[tc.at] = 0
			}
		}
	}
}

// FuzzErrorFedMatchesThreePasses feeds arbitrary vectors — fuzzValues; with
// carried, split into p and carry halves — through diffErrorFed at any
// width, chunk length (1..300), segment count (1..4) and apply limit.
func FuzzErrorFedMatchesThreePasses(f *testing.F) {
	ties := []byte{}
	for k := int16(-39); k <= 39; k += 2 { // half-integer quotients: ties
		ties = binary.LittleEndian.AppendUint16(ties, uint16(k))
	}
	f.Add(ties, uint8(6), false, false, uint16(40), uint8(1), int8(-2), uint16(0))
	f.Add(ties[:74], uint8(2), false, true, uint16(254), uint8(2), int8(3), uint16(5)) // odd 4-bit tail
	f.Add(rawBytes(190*minSub, -3*minSub, 150*minSub, 0, minSub, -minSub, 5*minSub, 7*minSub,
		9*minSub, -11*minSub, 13*minSub, 2*minSub, -4*minSub, 6*minSub, 8*minSub, -10*minSub, 12*minSub, minSub),
		uint8(6), true, false, uint16(15), uint8(1), int8(0), uint16(0)) // subnormal scales
	f.Add(rawBytes(1, 2, math.Inf(1), 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
		1, 1, 1, 1, math.NaN(), 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, math.Inf(-1), 1, 1),
		uint8(2), true, true, uint16(8), uint8(2), int8(0), uint16(3)) // non-finite chunk and carries
	f.Add(rawBytes(127, -0.3, math.Copysign(0, -1), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, -0.2),
		uint8(6), true, false, uint16(31), uint8(1), int8(0), uint16(0)) // −0
	f.Fuzz(func(t *testing.T, data []byte, width uint8, raw, carried bool, chunk uint16, segs uint8, exp int8, lim uint16) {
		bits := 2 + int(width)%7
		p, carry := fuzzValues(data, bits, raw, exp), []float64(nil)
		if carried {
			h := len(p) / 2
			p, carry = p[:h], p[h:2*h]
		}
		diffErrorFed(t, p, carry, bits, 1+int(chunk)%300, 1+int(segs)%4, int(lim))
	})
}
