package nn

import (
	"fedprophet/internal/tensor"
)

// Sequential chains layers, itself satisfying Layer. It is the one layer
// container: the "atoms" FedProphet's model partitioner treats as
// indivisible (conv+bn+relu triples), both branches of a residual block, a
// cascade module's backbone and the composite models built from them.
type Sequential struct {
	Layers []Layer
	label  string
	run    evalRun // the fused run of the last Forward; run.n = 0 for none
}

// NewSequential constructs a chain of layers with a diagnostic label.
func NewSequential(label string, layers ...Layer) *Sequential {
	return &Sequential{Layers: layers, label: label}
}

// Forward applies each layer in order. In eval mode a leading Conv2D →
// BatchNorm2D → ReLU [→ MaxPool2D] runs as one operator (evalRun) whose
// output is bit-identical to the layer-by-layer pass.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if s.run = leadingRun(s.Layers, train); s.run.n > 0 {
		x = s.run.conv.forward(x, false, &s.run)
	}
	for _, l := range s.Layers[s.run.n:] {
		x = l.Forward(x, train)
	}
	return x
}

// Backward applies the layers' backward passes in reverse order, the fused
// run's as one.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= s.run.n; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	if s.run.n > 0 {
		grad = s.run.conv.backward(grad, &s.run)
	}
	return grad
}

// evalRun is an eval-mode Conv2D → BatchNorm2D → ReLU [→ MaxPool2D] run as
// one operator on the convolution's panel loops. Forward: the conv's copy-out
// hands each finished output plane, still in cache, to forwardPlane (conv
// bias, BN's affine, ReLU's mask, then the window max and argmax when
// pooled), and only the run's output is allocated. Backward: the conv's dY
// packing calls backwardPlane (the pool's scatter onto +0, ReLU's mask, BN's
// γ·invStd). Every element sees the layers' operations in their order, so no
// bit moves, and the mask, argmax and statistics land in the layers' own
// caches: each layer is left as its own Forward would leave it.
type evalRun struct {
	conv *Conv2D
	bn   *BatchNorm2D
	relu *ReLU
	pool *MaxPool2D // nil when the run ends at the ReLU
	n    int        // layers covered: 3 or 4, 0 for no run
}

// leadingRun returns the run that opens layers in eval mode, if any.
func leadingRun(layers []Layer, train bool) (r evalRun) {
	if len(layers) >= 3 && !train {
		r.conv, _ = layers[0].(*Conv2D)
		r.bn, _ = layers[1].(*BatchNorm2D)
		r.relu, _ = layers[2].(*ReLU)
	}
	if r.conv == nil || r.bn == nil || r.relu == nil {
		return evalRun{}
	}
	if r.n = 3; len(layers) > 3 {
		if r.pool, _ = layers[3].(*MaxPool2D); r.pool != nil {
			r.n = 4
		}
	}
	return r
}

// begin readies the run for bsz convolution outputs of oh×ow and returns the
// tensor it writes.
func (r *evalRun) begin(bsz, oh, ow int) *tensor.Tensor {
	c := r.conv.OutC
	if c != r.bn.C {
		panic("nn: BatchNorm2D channel mismatch")
	}
	r.bn.useRunningStats()
	r.relu.mask = grow(r.relu.mask, bsz*c*oh*ow)
	if r.pool == nil {
		return tensor.New(bsz, c, oh, ow)
	}
	return r.pool.begin(bsz, c, oh, ow)
}

// forwardPlane finishes plane p (image·OutC + channel) of the convolution,
// src, into out. src is the conv's scratch: a pooled run finishes the plane
// in place and pools it from there.
func (r *evalRun) forwardPlane(out, src []float64, p int, bias float64) {
	n, ch := len(src), p%r.bn.C
	mean, invStd := r.bn.mean[ch], r.bn.invStd[ch]
	g, be := r.bn.Gamma.Data.Data[ch], r.bn.Beta.Data.Data[ch]
	mask, dst := r.relu.mask[p*n:(p+1)*n], src
	if r.pool == nil {
		dst = out[p*n : (p+1)*n]
	}
	for i, v := range src {
		if bias != 0 {
			v += bias
		}
		v = float64(g*((v-mean)*invStd)) + be
		keep := !(v <= 0)
		mask[i] = keep
		dst[i] = keepOrZero(v, keep)
	}
	if r.pool != nil {
		po := n / (r.pool.Kernel * r.pool.Kernel)
		r.pool.poolPlane(out[p*po:(p+1)*po], dst, p, r.conv.outW)
	}
}

// backwardPlane writes plane p of dL/d(conv output) into dy from grad, the
// gradient of the run's output.
func (r *evalRun) backwardPlane(dy, grad []float64, p int) {
	n, ch := len(dy), p%r.bn.C
	src := dy
	if r.pool == nil {
		src = grad[p*n : (p+1)*n]
	} else {
		po := n / (r.pool.Kernel * r.pool.Kernel)
		clear(dy)
		for j, v := range grad[p*po : (p+1)*po] {
			dy[r.pool.argmax[p*po+j]-p*n] += v
		}
	}
	scale := r.bn.Gamma.Data.Data[ch] * r.bn.invStd[ch]
	mask := r.relu.mask[p*n : (p+1)*n]
	for i, v := range src {
		dy[i] = scale * keepOrZero(v, mask[i])
	}
}

// Params concatenates the parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// OutShape threads the per-sample shape through every layer.
func (s *Sequential) OutShape(in []int) []int {
	for _, l := range s.Layers {
		in = l.OutShape(in)
	}
	return in
}

// ForwardFLOPs sums per-layer costs along the shape chain.
func (s *Sequential) ForwardFLOPs(in []int) int64 {
	var total int64
	for _, l := range s.Layers {
		total += l.ForwardFLOPs(in)
		in = l.OutShape(in)
	}
	return total
}

// Name returns the label given at construction.
func (s *Sequential) Name() string { return s.label }

// BasicBlock is the ResNet residual unit: a main branch Conv1 → BN1 → ReLU →
// Conv2 → BN2 and a skip branch — the identity, or a 1×1 strided projection
// DownConv → DownBN when the stride or channel count changes — summed and
// closed by a ReLU. Both branches are Sequentials, so in eval mode the main
// branch opens with the fused Conv → BN → ReLU run (evalRun).
type BasicBlock struct {
	Conv1 *Conv2D
	BN1   *BatchNorm2D
	Conv2 *Conv2D
	BN2   *BatchNorm2D
	// DownConv and DownBN are nil for an identity skip.
	DownConv *Conv2D
	DownBN   *BatchNorm2D

	main, skip *Sequential // skip is nil for an identity skip
	relu       *ReLU
}

// OutShape maps (C,H,W) through the residual block.
func (b *BasicBlock) OutShape(in []int) []int { return b.main.OutShape(in) }

// ForwardFLOPs sums both branches, the residual add and the final ReLU.
func (b *BasicBlock) ForwardFLOPs(in []int) int64 {
	total := b.main.ForwardFLOPs(in) + 2*int64(prodInts(b.OutShape(in)))
	if b.skip != nil {
		total += b.skip.ForwardFLOPs(in)
	}
	return total
}

// Forward runs both branches on x and the ReLU on their sum.
func (b *BasicBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := b.main.Forward(x, train)
	if b.skip != nil {
		x = b.skip.Forward(x, train)
	}
	return b.relu.Forward(tensor.Add(out, x), train)
}

// Backward propagates through both branches and sums the input gradients.
func (b *BasicBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	grad = b.relu.Backward(grad)
	dx := b.main.Backward(grad)
	if b.skip != nil {
		grad = b.skip.Backward(grad)
	}
	return tensor.Add(dx, grad)
}

// Params concatenates both branches' parameters.
func (b *BasicBlock) Params() []*Param {
	ps := b.main.Params()
	if b.skip != nil {
		ps = append(ps, b.skip.Params()...)
	}
	return ps
}

// Name identifies the layer kind.
func (b *BasicBlock) Name() string { return "basicblock" }

// collect returns every T reachable inside the layer tree (Sequential,
// BasicBlock and Model containers), in forward order.
func collect[T Layer](l Layer) []T {
	var out []T
	var walk func(Layer)
	walk = func(l Layer) {
		switch v := l.(type) {
		case T:
			out = append(out, v)
		case *Sequential:
			for _, sub := range v.Layers {
				walk(sub)
			}
		case *BasicBlock:
			walk(v.main)
			if v.skip != nil {
				walk(v.skip)
			}
		case *Model:
			for _, a := range v.Atoms {
				walk(a)
			}
		}
	}
	walk(l)
	return out
}
