package nn

import (
	"math"

	"fedprophet/internal/tensor"
)

// ReLU applies max(0, x) elementwise.
type ReLU struct {
	mask []bool
}

// NewReLU constructs a ReLU activation.
func NewReLU() *ReLU { return &ReLU{} }

// Forward writes x where !(x <= 0) and +0 elsewhere into a fresh output,
// recording the activation mask in the same pass. NaN is kept.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	r.mask = grow(r.mask, len(x.Data))
	mask, o := r.mask, out.Data[:len(x.Data)]
	for i, v := range x.Data {
		keep := !(v <= 0)
		mask[i] = keep
		o[i] = keepOrZero(v, keep)
	}
	return out
}

// Backward passes the gradient where the activation was kept and +0 where it
// was clipped, into a fresh output.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(grad.Shape()...)
	mask, o := r.mask[:len(grad.Data)], out.Data[:len(grad.Data)]
	for i, v := range grad.Data {
		o[i] = keepOrZero(v, mask[i])
	}
	return out
}

// keepOrZero returns v if keep and +0 otherwise, as a bit mask rather than a
// branch: about half of a layer's activations are clipped, in no pattern a
// branch predictor could learn.
func keepOrZero(v float64, keep bool) float64 {
	var k uint64
	if keep {
		k = 1
	}
	return math.Float64frombits(math.Float64bits(v) & -k)
}

// Params returns nil: ReLU is parameter-free.
func (r *ReLU) Params() []*Param { return nil }

// OutShape is the identity.
func (r *ReLU) OutShape(in []int) []int { return append([]int(nil), in...) }

// ForwardFLOPs counts one comparison per element.
func (r *ReLU) ForwardFLOPs(in []int) int64 { return int64(prodInts(in)) }

// Name identifies the layer kind.
func (r *ReLU) Name() string { return "relu" }

// Flatten reshapes (B, C, H, W) (or any rank) into (B, C·H·W).
type Flatten struct {
	inShape []int
}

// NewFlatten constructs a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all non-batch dimensions.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape()...)
	return x.Reshape(x.Dim(0), x.Len()/x.Dim(0))
}

// Backward restores the cached input shape.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.inShape...)
}

// Params returns nil: Flatten is parameter-free.
func (f *Flatten) Params() []*Param { return nil }

// OutShape collapses the per-sample shape to a vector.
func (f *Flatten) OutShape(in []int) []int { return []int{prodInts(in)} }

// ForwardFLOPs is zero: flattening is free.
func (f *Flatten) ForwardFLOPs(in []int) int64 { return 0 }

// Name identifies the layer kind.
func (f *Flatten) Name() string { return "flatten" }
