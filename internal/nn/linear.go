package nn

import (
	"math"
	"math/rand"

	"fedprophet/internal/tensor"
)

// Linear is a fully connected layer computing y = x·Wᵀ + b for
// x of shape (B, In) and W of shape (Out, In).
type Linear struct {
	In, Out int
	W       *Param // (Out, In)
	B       *Param // (Out)

	x       *tensor.Tensor // cached input
	trained bool           // mode of the last Forward (see Layer)
}

// NewLinear constructs a Linear layer with Kaiming-uniform initialization.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	bound := math.Sqrt(6.0 / float64(in))
	w := tensor.Uniform(rng, -bound, bound, out, in)
	b := tensor.New(out)
	return &Linear{
		In:  in,
		Out: out,
		W:   NewParam("linear.w", w, false),
		B:   NewParam("linear.b", b, true),
	}
}

// Forward computes x·Wᵀ + b, packing Wᵀ (In·Out values) so the product runs
// on the one GEMM tile; each output is the sum over In from +0, as a dot
// product of x's row with W's row would take it.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.x, l.trained = x, train
	wt := tensor.Scratch.Get(l.In * l.Out)
	defer tensor.Scratch.Put(wt)
	wd := l.W.Data.Data
	for o := 0; o < l.Out; o++ {
		for i, v := range wd[o*l.In : (o+1)*l.In] {
			wt[i*l.Out+o] = v
		}
	}
	out := tensor.MatMulPar(x, tensor.FromSlice(wt, l.In, l.Out)) // (B,In)·(In,Out) = (B,Out)
	bsz := x.Dim(0)
	for i := 0; i < bsz; i++ {
		row := out.Data[i*l.Out : (i+1)*l.Out]
		for j := 0; j < l.Out; j++ {
			row[j] += l.B.Data.Data[j]
		}
	}
	return out
}

// Backward returns grad·W and, after a train-mode Forward, accumulates
// dW = gradᵀ·x and db = Σ grad.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.trained {
		// dW (Out,In) = gradᵀ (Out,B) · x (B,In)
		dw := tensor.MatMulTransAPar(grad, l.x)
		l.W.Grad.AddInPlace(dw)

		bsz := grad.Dim(0)
		for i := 0; i < bsz; i++ {
			row := grad.Data[i*l.Out : (i+1)*l.Out]
			for j := 0; j < l.Out; j++ {
				l.B.Grad.Data[j] += row[j]
			}
		}
	}
	// dX (B,In) = grad (B,Out) · W (Out,In)
	return tensor.MatMulPar(grad, l.W.Data)
}

// Params returns the weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// OutShape maps a per-sample input shape to (Out).
func (l *Linear) OutShape(in []int) []int { return []int{l.Out} }

// ForwardFLOPs counts 2·In·Out multiply-adds per sample.
func (l *Linear) ForwardFLOPs(in []int) int64 {
	return 2 * int64(l.In) * int64(l.Out)
}

// Name identifies the layer kind and size.
func (l *Linear) Name() string { return "linear" }
