package nn

import (
	"math"

	"fedprophet/internal/tensor"
)

// BatchNorm2D normalizes each channel of an NCHW tensor over the batch and
// spatial dimensions, with learnable affine parameters and running statistics
// used at evaluation time. The running statistics are themselves exposed as
// state for FedRBN-style robustness propagation.
type BatchNorm2D struct {
	C        int
	Eps      float64
	Momentum float64 // running-stat update rate

	Gamma *Param // (C)
	Beta  *Param // (C)

	// RunningMean and RunningVar are the EMA statistics used in eval mode.
	// FedRBN copies these across clients, so they are exported tensors.
	RunningMean *tensor.Tensor
	RunningVar  *tensor.Tensor

	// Caches for backward. xhat is written only by a train-mode Forward,
	// the one pass whose Backward reads it.
	xhat    []float64
	mean    []float64
	invStd  []float64
	trained bool
}

// NewBatchNorm2D constructs a batch norm over c channels.
func NewBatchNorm2D(c int) *BatchNorm2D {
	gamma := tensor.New(c)
	gamma.Fill(1)
	rv := tensor.New(c)
	rv.Fill(1)
	return &BatchNorm2D{
		C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma:       NewParam("bn.gamma", gamma, true),
		Beta:        NewParam("bn.beta", tensor.New(c), true),
		RunningMean: tensor.New(c),
		RunningVar:  rv,
	}
}

// Forward normalizes x; in train mode it uses batch statistics and updates
// the running averages, in eval mode it uses the running statistics.
// Every multiply-add rounds its product (float64(a*b) + c), so no platform
// fuses it, and eval mode equals the fused run's epilogue (evalRun).
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	bsz, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if c != bn.C {
		panic("nn: BatchNorm2D channel mismatch")
	}
	n, hw := bsz*h*w, h*w
	if train {
		bn.trained = true
		bn.mean, bn.invStd = grow(bn.mean, c), grow(bn.invStd, c)
		bn.xhat = grow(bn.xhat, x.Len())
	} else {
		bn.useRunningStats()
	}

	out := tensor.New(bsz, c, h, w)
	for ch := 0; ch < c; ch++ {
		if train {
			s := 0.0
			for b := 0; b < bsz; b++ {
				base := (b*c + ch) * hw
				for i := 0; i < hw; i++ {
					s += x.Data[base+i]
				}
			}
			mean := s / float64(n)
			v := 0.0
			for b := 0; b < bsz; b++ {
				base := (b*c + ch) * hw
				for i := 0; i < hw; i++ {
					d := x.Data[base+i] - mean
					v += float64(d * d)
				}
			}
			varr := v / float64(n)
			// The biased (÷n) variance normalizes the batch, but the running
			// statistic uses the unbiased (÷(n−1)) estimator as PyTorch does,
			// so eval-mode outputs are not systematically sharpened at small
			// batch sizes.
			runVar := varr
			if n > 1 {
				runVar = v / float64(n-1)
			}
			m := bn.Momentum
			bn.RunningMean.Data[ch] = float64((1-m)*bn.RunningMean.Data[ch]) + float64(m*mean)
			bn.RunningVar.Data[ch] = float64((1-m)*bn.RunningVar.Data[ch]) + float64(m*runVar)
			bn.mean[ch], bn.invStd[ch] = mean, 1.0/math.Sqrt(varr+bn.Eps)
		}
		mean, invStd := bn.mean[ch], bn.invStd[ch]
		g := bn.Gamma.Data.Data[ch]
		be := bn.Beta.Data.Data[ch]
		for b := 0; b < bsz; b++ {
			base := (b*c + ch) * hw
			for i := 0; i < hw; i++ {
				xh := (x.Data[base+i] - mean) * invStd
				if train {
					bn.xhat[base+i] = xh
				}
				out.Data[base+i] = float64(g*xh) + be
			}
		}
	}
	return out
}

// useRunningStats readies an eval-mode pass: bn.mean and bn.invStd hold each
// channel's running mean and 1/√(running var + ε), and eval mode is latched.
func (bn *BatchNorm2D) useRunningStats() {
	bn.trained = false
	bn.mean, bn.invStd = grow(bn.mean, bn.C), grow(bn.invStd, bn.C)
	for ch := range bn.mean {
		bn.mean[ch], bn.invStd[ch] = bn.RunningMean.Data[ch], 1.0/math.Sqrt(bn.RunningVar.Data[ch]+bn.Eps)
	}
}

// Backward implements the standard batch-norm gradient. In eval mode the
// statistics are constants, which simplifies the input gradient to
// gamma·invStd·grad with no dγ/dβ — that path is used by PGD at training and
// evaluation time.
func (bn *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	bsz, c, h, w := grad.Dim(0), grad.Dim(1), grad.Dim(2), grad.Dim(3)
	hw := h * w
	n := float64(bsz * hw)
	dx := tensor.New(bsz, c, h, w)

	for ch := 0; ch < c; ch++ {
		g := bn.Gamma.Data.Data[ch]
		invStd := bn.invStd[ch]
		if !bn.trained {
			scale := g * invStd
			for b := 0; b < bsz; b++ {
				base := (b*c + ch) * hw
				for i := 0; i < hw; i++ {
					dx.Data[base+i] = scale * grad.Data[base+i]
				}
			}
			continue
		}
		var sumDy, sumDyXhat float64
		for b := 0; b < bsz; b++ {
			base := (b*c + ch) * hw
			for i := 0; i < hw; i++ {
				dy := grad.Data[base+i]
				sumDy += dy
				sumDyXhat += float64(dy * bn.xhat[base+i])
			}
		}
		bn.Beta.Grad.Data[ch] += sumDy
		bn.Gamma.Grad.Data[ch] += sumDyXhat

		for b := 0; b < bsz; b++ {
			base := (b*c + ch) * hw
			for i := 0; i < hw; i++ {
				dy := grad.Data[base+i]
				xh := bn.xhat[base+i]
				dx.Data[base+i] = g * invStd * (dy - sumDy/n - xh*sumDyXhat/n)
			}
		}
	}
	return dx
}

// Params returns gamma and beta.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// OutShape is the identity.
func (bn *BatchNorm2D) OutShape(in []int) []int { return append([]int(nil), in...) }

// ForwardFLOPs counts roughly four ops per element.
func (bn *BatchNorm2D) ForwardFLOPs(in []int) int64 { return 4 * int64(prodInts(in)) }

// Name identifies the layer kind.
func (bn *BatchNorm2D) Name() string { return "batchnorm2d" }

// CollectBatchNorms returns every BatchNorm2D reachable inside the layer
// tree. FedRBN propagates adversarial robustness through these layers'
// running statistics.
func CollectBatchNorms(l Layer) []*BatchNorm2D { return collect[*BatchNorm2D](l) }

// NumBNStats returns how many running-statistic values ExportBNStats would
// emit, without materializing them — shape checks on hot paths use this.
func NumBNStats(l Layer) int {
	n := 0
	for _, bn := range CollectBatchNorms(l) {
		n += bn.RunningMean.Len() + bn.RunningVar.Len()
	}
	return n
}

// ExportBNStats flattens the running statistics of every batch norm in the
// layer into one vector (means then variances, per layer).
func ExportBNStats(l Layer) []float64 {
	var out []float64
	for _, bn := range CollectBatchNorms(l) {
		out = append(out, bn.RunningMean.Data...)
		out = append(out, bn.RunningVar.Data...)
	}
	return out
}

// ImportBNStats restores a vector produced by ExportBNStats.
func ImportBNStats(l Layer, v []float64) {
	off := 0
	for _, bn := range CollectBatchNorms(l) {
		n := bn.RunningMean.Len()
		copy(bn.RunningMean.Data, v[off:off+n])
		off += n
		copy(bn.RunningVar.Data, v[off:off+n])
		off += n
	}
	if off != len(v) {
		panic("nn: ImportBNStats length mismatch")
	}
}
