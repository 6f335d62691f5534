package nn

import (
	"fmt"
	"math"
	"math/rand"

	"fedprophet/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs with square kernels,
// configurable stride and zero padding.
type Conv2D struct {
	InC, OutC int
	Kernel    int
	Stride    int
	Pad       int
	W         *Param // (OutC, InC, K, K)
	B         *Param // (OutC)

	hasBias    bool
	inH, inW   int
	outH, outW int
	// trained latches the mode of the last Forward: only a train-mode
	// Backward accumulates dW/dB (see Layer).
	trained bool

	// col caches the im2col unrolling of the last forward batch, folded into
	// one (InC·K·K)-row matrix with outH·outW columns per image (see
	// foldLayout). Forward fills it, a train-mode Backward reads it for dW,
	// and it is reused across batches so the training hot loop stops
	// allocating. ReleaseScratch returns it to tensor.Scratch.
	col []float64
}

// NewConv2D constructs a convolution with Kaiming-normal initialization.
// If bias is false (the usual choice before batch norm), no bias term is
// allocated.
func NewConv2D(inC, outC, kernel, stride, pad int, bias bool, rng *rand.Rand) *Conv2D {
	fanIn := float64(inC * kernel * kernel)
	std := math.Sqrt(2.0 / fanIn)
	w := tensor.Randn(rng, std, outC, inC, kernel, kernel)
	c := &Conv2D{
		InC: inC, OutC: outC, Kernel: kernel, Stride: stride, Pad: pad,
		W: NewParam("conv.w", w, false), hasBias: bias,
	}
	if bias {
		c.B = NewParam("conv.b", tensor.New(outC), true)
	}
	return c
}

func (c *Conv2D) outDims(h, w int) (int, int) {
	return tensor.ConvOutDims(h, w, c.Kernel, c.Stride, c.Pad)
}

// ReleaseScratch returns the layer's cached im2col buffer to the shared
// arena. Call it when the layer goes idle (end of a client's training turn);
// the next Forward will transparently reacquire scratch.
func (c *Conv2D) ReleaseScratch() {
	tensor.Scratch.Put(c.col[:cap(c.col)])
	c.col = nil
}

// foldPanel caps how many folded columns one GEMM call multiplies (a single
// feature map wider than this is a panel of its own). It bounds the transient
// scratch of a layer at (OutC + InC·K²) × foldPanel values per worker whatever
// the batch size, and it is the grain of parallelism: a worker takes whole
// panels. At batch 8 only 16×16 feature maps need more than one.
const foldPanel = 512

// foldLayout places the images of a batch in the folded column matrix: per
// consecutive images form a panel, a panel's maps sit side by side, ohow
// columns each, and every panel starts stride columns after the previous one
// — its columns rounded up to the GEMM tile's 8, so the vector kernel never
// meets a column tail. The pad columns at the end of a panel hold zeros.
type foldLayout struct {
	ohow   int // columns per image: outH·outW
	per    int // images per panel
	stride int // columns from one panel to the next
	panels int
}

func newFoldLayout(bsz, ohow int) foldLayout {
	per := min(max(1, foldPanel/ohow), bsz)
	return foldLayout{ohow: ohow, per: per, stride: roundUp8(per * ohow), panels: (bsz + per - 1) / per}
}

// roundUp8 rounds a column count up to whole 8-column GEMM tiles.
func roundUp8(n int) int { return (n + 7) &^ 7 }

// ld is the row stride of the whole folded matrix.
func (l foldLayout) ld() int { return l.panels * l.stride }

// col is the first column of image b.
func (l foldLayout) col(b int) int { return b/l.per*l.stride + b%l.per*l.ohow }

// forEachPanel calls f once per panel of a bsz-image batch with the panel's
// images [b0, b1), the number of columns pw the GEMM covers for them (their
// maps plus the pad up to whole tiles) and a scratch buffer of at least
// rows × pw values, reused from panel to panel. Panels are spread over the
// worker pool unless the layer is under the pool's multiply-add floor.
func (c *Conv2D) forEachPanel(l foldLayout, bsz, rows int, f func(b0, b1, pw int, scratch []float64)) {
	work := c.OutC * c.InC * c.Kernel * c.Kernel * bsz * l.ohow
	tensor.ParallelForWork(l.panels, work, func(lo, hi int) {
		scratch := tensor.Scratch.Get(rows * l.stride)
		defer tensor.Scratch.Put(scratch)
		for p := lo; p < hi; p++ {
			b0, b1 := p*l.per, min((p+1)*l.per, bsz)
			f(b0, b1, roundUp8((b1-b0)*l.ohow), scratch)
		}
	})
}

// zeroCols clears columns [lo, hi) of every row of m, a rows × ld matrix.
func zeroCols(m []float64, rows, ld, lo, hi int) {
	if lo == hi {
		return
	}
	for r := 0; r < rows; r++ {
		pad := m[r*ld+lo : r*ld+hi]
		for i := range pad {
			pad[i] = 0
		}
	}
}

// Forward performs the convolution on NCHW inputs, lowered onto im2col +
// batch-folded GEMM: every image's receptive fields are unrolled into its own
// columns of one (InC·K²) × (bsz·outH·outW) matrix, the layer becomes W
// (OutC × InC·K²) times that matrix, taken one panel of columns at a time (see
// forEachPanel), and each panel's product is unfolded into NCHW. Folding only
// changes which columns are in flight together: each per-element sum still
// accumulates in (ic, kh, kw) order, so the activations are bit-identical to
// the direct-loop reference the tests keep (convref_test.go) at every batch
// size and worker count.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	bsz, inC, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if inC != c.InC {
		panic("nn: Conv2D channel mismatch")
	}
	oh, ow := c.outDims(h, w)
	c.inH, c.inW, c.outH, c.outW = h, w, oh, ow
	c.trained = train

	out := tensor.New(bsz, c.OutC, oh, ow)
	k, st, pad := c.Kernel, c.Stride, c.Pad
	ickk := c.InC * k * k
	ohow := oh * ow
	lay := newFoldLayout(bsz, ohow)
	ld := lay.ld()
	if cap(c.col) < ickk*ld {
		tensor.Scratch.Put(c.col[:cap(c.col)])
		c.col = tensor.Scratch.Get(ickk * ld)
	}
	c.col = c.col[:ickk*ld]
	col, wd := c.col, c.W.Data.Data
	c.forEachPanel(lay, bsz, c.OutC, func(b0, b1, pw int, prod []float64) {
		j0 := lay.col(b0)
		for b := b0; b < b1; b++ {
			tensor.Im2ColStridedInto(col, x.Data[b*c.InC*h*w:(b+1)*c.InC*h*w], c.InC, h, w, k, st, pad, ld, lay.col(b))
		}
		zeroCols(col, ickk, ld, j0+(b1-b0)*ohow, j0+pw)
		tensor.MatMulStridedInto(prod, pw, wd, col[j0:], ld, c.OutC, ickk, pw)
		for b := b0; b < b1; b++ {
			outB := out.Data[b*c.OutC*ohow : (b+1)*c.OutC*ohow]
			for oc := 0; oc < c.OutC; oc++ {
				oplane := outB[oc*ohow : (oc+1)*ohow]
				copy(oplane, prod[oc*pw+(b-b0)*ohow:])
				if !c.hasBias {
					continue
				}
				if bias := c.B.Data.Data[oc]; bias != 0 {
					for i := range oplane {
						oplane[i] += bias
					}
				}
			}
		}
	})
	return out
}

// Backward returns dL/dx and, after a train-mode Forward, accumulates the
// weight/bias gradients; after an eval-mode Forward it computes the input
// gradient only. The three gradients are:
//
//	dX  = Col2Im(Wᵀ · dY)   (dY folded like col, one panel at a time; per-image scatter)
//	dW += dY_b · col_bᵀ     (dot products on the cached col, per image in batch order)
//
// dX splits over panels like the forward pass (disjoint writes: a worker
// folds, multiplies and scatters its own images) and dW over weight rows,
// with each weight element accumulating images in ascending batch order — so
// gradients are bit-deterministic at every GOMAXPROCS. dW and dB are skipped
// after an eval-mode Forward; dX does not depend on them.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	bsz := grad.Dim(0)
	h, w, oh, ow := c.inH, c.inW, c.outH, c.outW
	k, st, pad := c.Kernel, c.Stride, c.Pad
	ickk := c.InC * k * k
	ohow := oh * ow
	lay := newFoldLayout(bsz, ohow)
	ld := lay.ld()
	if len(c.col) != ickk*ld {
		panic(fmt.Sprintf("nn: Conv2D backward without matching forward (col %d, need %d)",
			len(c.col), ickk*ld))
	}
	dx := tensor.New(bsz, c.InC, h, w)
	wd := c.W.Data.Data

	if c.hasBias && c.trained {
		for b := 0; b < bsz; b++ {
			gb := grad.Data[b*c.OutC*ohow : (b+1)*c.OutC*ohow]
			for oc := 0; oc < c.OutC; oc++ {
				s := 0.0
				for _, v := range gb[oc*ohow : (oc+1)*ohow] {
					s += v
				}
				c.B.Grad.Data[oc] += s
			}
		}
	}

	c.forEachPanel(lay, bsz, c.OutC+ickk, func(b0, b1, pw int, scratch []float64) {
		dy, dcol := scratch[:c.OutC*pw], scratch[c.OutC*pw:]
		for b := b0; b < b1; b++ {
			gb := grad.Data[b*c.OutC*ohow : (b+1)*c.OutC*ohow]
			for oc := 0; oc < c.OutC; oc++ {
				copy(dy[oc*pw+(b-b0)*ohow:], gb[oc*ohow:(oc+1)*ohow])
			}
		}
		zeroCols(dy, c.OutC, pw, (b1-b0)*ohow, pw)
		tensor.MatMulTransAStridedInto(dcol, pw, wd, dy, pw, c.OutC, ickk, pw)
		for b := b0; b < b1; b++ {
			tensor.Col2ImAccStridedInto(dx.Data[b*c.InC*h*w:(b+1)*c.InC*h*w], dcol, c.InC, h, w, k, st, pad, pw, (b-b0)*ohow)
		}
	})

	if !c.trained {
		return dx
	}
	wg, col := c.W.Grad.Data, c.col
	tensor.ParallelForWork(c.OutC, c.OutC*ickk*bsz*ohow, func(lo, hi int) {
		for b := 0; b < bsz; b++ {
			gb := grad.Data[b*c.OutC*ohow : (b+1)*c.OutC*ohow]
			tensor.MatMulTransBAccRowsStridedInto(wg, gb, ohow, col[lay.col(b):], ld, ohow, ickk, lo, hi)
		}
	})
	return dx
}

// Params returns weight (and bias if present).
func (c *Conv2D) Params() []*Param {
	if c.hasBias {
		return []*Param{c.W, c.B}
	}
	return []*Param{c.W}
}

// OutShape maps (C,H,W) to (OutC,H',W').
func (c *Conv2D) OutShape(in []int) []int {
	oh, ow := c.outDims(in[1], in[2])
	return []int{c.OutC, oh, ow}
}

// ForwardFLOPs counts 2·K²·InC·OutC·H'·W' per sample.
func (c *Conv2D) ForwardFLOPs(in []int) int64 {
	oh, ow := c.outDims(in[1], in[2])
	return 2 * int64(c.Kernel) * int64(c.Kernel) * int64(c.InC) * int64(c.OutC) * int64(oh) * int64(ow)
}

// Name identifies the layer kind.
func (c *Conv2D) Name() string { return "conv2d" }

// CollectConvs returns every Conv2D reachable inside the layer tree
// (Sequential, BasicBlock, Model containers), mirroring CollectBatchNorms.
func CollectConvs(l Layer) []*Conv2D {
	var out []*Conv2D
	switch v := l.(type) {
	case *Conv2D:
		out = append(out, v)
	case *Sequential:
		for _, sub := range v.Layers {
			out = append(out, CollectConvs(sub)...)
		}
	case *BasicBlock:
		out = append(out, v.Conv1, v.Conv2)
		if v.DownConv != nil {
			out = append(out, v.DownConv)
		}
	case *Model:
		for _, a := range v.Atoms {
			out = append(out, CollectConvs(a)...)
		}
	}
	return out
}

// ReleaseScratch returns the cached im2col buffers of every convolution in
// the layer tree to the shared arena. Safe to call on an idle model; the
// buffers are reacquired lazily on the next Forward.
func ReleaseScratch(l Layer) {
	for _, c := range CollectConvs(l) {
		c.ReleaseScratch()
	}
}
