package nn

import (
	"math"
	"math/rand"

	"fedprophet/internal/tensor"
)

// LoRALinear is a low-rank-adapted linear layer (Hu et al. 2021), the
// layer-level memory-efficient training method the paper's §8 names as
// complementary to FedProphet's module partitioning: the frozen base weight
// W is augmented with a trainable rank-r update ΔW = (α/r)·BᵀA, so the
// optimizer state and gradients cover only r·(In+Out) scalars instead of
// In·Out.
//
//	y = x·Wᵀ + (α/r)·(x·Aᵀ)·Bᵀ + b
type LoRALinear struct {
	In, Out, Rank int
	Scale         float64 // α/r

	// Base weights are frozen: not returned by Params.
	W *tensor.Tensor // (Out, In)
	b *tensor.Tensor // (Out)

	A *Param // (Rank, In), Gaussian init
	B *Param // (Out, Rank), zero init so training starts at the base model

	x       *tensor.Tensor // cached input
	xa      *tensor.Tensor // cached x·Aᵀ
	trained bool           // mode of the last Forward (see Layer)
}

// NewLoRALinear wraps an existing Linear layer with rank-r adapters; the
// base weights are copied and frozen.
func NewLoRALinear(base *Linear, rank int, alpha float64, rng *rand.Rand) *LoRALinear {
	if rank < 1 {
		panic("nn: LoRA rank must be ≥ 1")
	}
	std := 1.0 / math.Sqrt(float64(base.In))
	return &LoRALinear{
		In: base.In, Out: base.Out, Rank: rank,
		Scale: alpha / float64(rank),
		W:     base.W.Data.Clone(),
		b:     base.B.Data.Clone(),
		A:     NewParam("lora.a", tensor.Randn(rng, std, rank, base.In), false),
		B:     NewParam("lora.b", tensor.New(base.Out, rank), false),
	}
}

// Forward computes the adapted projection.
func (l *LoRALinear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.x, l.trained = x, train
	out := tensor.MatMulTransB(x, l.W) // (B,Out)
	l.xa = tensor.MatMulTransB(x, l.A.Data)
	delta := tensor.MatMulTransB(l.xa, l.B.Data) // (B,Out)
	out.AxpyInPlace(l.Scale, delta)
	bsz := x.Dim(0)
	for i := 0; i < bsz; i++ {
		row := out.Data[i*l.Out : (i+1)*l.Out]
		for j := 0; j < l.Out; j++ {
			row[j] += l.b.Data[j]
		}
	}
	return out
}

// Backward returns the input gradient and, after a train-mode Forward,
// accumulates the adapter gradients; the base stays frozen.
func (l *LoRALinear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	gB := tensor.MatMul(grad, l.B.Data) // (B,Rank)
	if l.trained {
		// dB (Out,Rank) = scale · gradᵀ·xa
		dB := tensor.MatMulTransA(grad, l.xa)
		l.B.Grad.AxpyInPlace(l.Scale, dB)

		// dA (Rank,In) = scale · (grad·B)ᵀ·x
		dA := tensor.MatMulTransA(gB, l.x)
		l.A.Grad.AxpyInPlace(l.Scale, dA)
	}

	// dx = grad·W + scale·(grad·B)·A
	dx := tensor.MatMul(grad, l.W)
	dx.AxpyInPlace(l.Scale, tensor.MatMul(gB, l.A.Data))
	return dx
}

// Params returns only the adapters (the base is frozen).
func (l *LoRALinear) Params() []*Param { return []*Param{l.A, l.B} }

// OutShape maps a feature vector to (Out).
func (l *LoRALinear) OutShape(in []int) []int { return []int{l.Out} }

// ForwardFLOPs counts base plus adapter multiply-adds.
func (l *LoRALinear) ForwardFLOPs(in []int) int64 {
	base := 2 * int64(l.In) * int64(l.Out)
	adapter := 2 * int64(l.Rank) * int64(l.In+l.Out)
	return base + adapter
}

// Name identifies the layer kind.
func (l *LoRALinear) Name() string { return "lora-linear" }

// MergedWeight returns W + (α/r)·B·A, the effective linear weight after
// adaptation; used to fold adapters back into a plain Linear layer.
func (l *LoRALinear) MergedWeight() *tensor.Tensor {
	delta := tensor.MatMul(l.B.Data, l.A.Data) // (Out,In)
	out := l.W.Clone()
	out.AxpyInPlace(l.Scale, delta)
	return out
}
