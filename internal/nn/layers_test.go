package nn

import (
	"math"
	"math/rand"
	"testing"

	"fedprophet/internal/tensor"
)

// ReLU keeps every value with !(v <= 0) — NaN of either sign and +Inf
// included, bits unchanged — and writes +0 (never −0) elsewhere; Backward
// passes the gradient through exactly the kept positions and +0 elsewhere.
func TestReLUKeepsNaNAndClipsToPositiveZero(t *testing.T) {
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	in := []float64{math.NaN(), negNaN, math.Copysign(0, -1), 0, -1, 2, math.Inf(1), math.Inf(-1), 5e-324, -5e-324}
	kept := []bool{true, true, false, false, false, true, true, false, true, false}
	grad := []float64{1, 2, 3, 4, 5, 6, 7, math.NaN(), 9, math.Copysign(0, -1)}
	r := NewReLU()
	out := r.Forward(tensor.FromSlice(append([]float64(nil), in...), 2, 5), true)
	back := r.Backward(tensor.FromSlice(append([]float64(nil), grad...), 2, 5))
	for i := range in {
		wantOut, wantBack := 0.0, 0.0
		if kept[i] {
			wantOut, wantBack = in[i], grad[i]
		}
		if math.Float64bits(out.Data[i]) != math.Float64bits(wantOut) {
			t.Errorf("forward of %v = %v (bits %x), want %v", in[i], out.Data[i], math.Float64bits(out.Data[i]), wantOut)
		}
		if math.Float64bits(back.Data[i]) != math.Float64bits(wantBack) {
			t.Errorf("backward at %v = %v, want %v", in[i], back.Data[i], wantBack)
		}
	}
}

// Linear's forward pass, on the GEMM tile through a packed Wᵀ, is the plain
// dot product of each input row with each weight row (from +0, ascending In)
// plus the bias, bit for bit.
func TestLinearForwardMatchesDotProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range []struct{ bsz, in, out int }{{1, 1, 1}, {3, 7, 10}, {8, 32, 10}, {5, 64, 17}} {
		l := NewLinear(d.in, d.out, rng)
		for i := range l.B.Data.Data {
			l.B.Data.Data[i] = rng.NormFloat64()
		}
		x := tensor.Randn(rng, 1, d.bsz, d.in)
		got := l.Forward(x, true)
		for b := 0; b < d.bsz; b++ {
			for o := 0; o < d.out; o++ {
				s := 0.0
				for i := 0; i < d.in; i++ {
					s += x.Data[b*d.in+i] * l.W.Data.Data[o*d.in+i]
				}
				s += l.B.Data.Data[o]
				if g := got.Data[b*d.out+o]; math.Float64bits(g) != math.Float64bits(s) {
					t.Fatalf("%+v: out[%d][%d] = %v, want %v", d, b, o, g, s)
				}
			}
		}
	}
}
