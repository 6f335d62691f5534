// Package nn implements the neural-network substrate of the FedProphet
// reproduction: layers with explicit forward/backward passes, parameter
// containers, an SGD optimizer, losses, and the scaled model families used in
// the paper's evaluation (VGG16-S, ResNet34-S, CNN3/CNN4, and the smaller
// VGG/ResNet variants used by the knowledge-distillation baselines).
//
// Every Layer caches whatever it needs during Forward so that Backward can
// return the gradient with respect to the layer input. That input gradient is
// what powers both PGD adversarial-example generation and cascade learning's
// intermediate-feature perturbations.
//
//lint:deterministic
package nn

import "fedprophet/internal/tensor"

// Param is a trainable tensor together with its gradient accumulator and
// optimizer state (momentum buffer, managed by SGD).
type Param struct {
	Name string
	Data *tensor.Tensor
	Grad *tensor.Tensor
	// NoDecay marks parameters (biases, batch-norm affine terms) excluded
	// from weight decay, following standard practice.
	NoDecay bool

	momentum *tensor.Tensor // lazily allocated by SGD
}

// NewParam allocates a parameter with a zeroed gradient of matching shape.
func NewParam(name string, data *tensor.Tensor, noDecay bool) *Param {
	return &Param{Name: name, Data: data, Grad: tensor.New(data.Shape()...), NoDecay: noDecay}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// NumElems returns the number of scalar weights in the parameter.
func (p *Param) NumElems() int { return p.Data.Len() }

// Layer is a differentiable unit. Forward consumes a batched input and
// returns the batched output; Backward consumes dL/d(output) and returns
// dL/d(input).
//
// Gradient demand follows the mode of the matching Forward: a train-mode
// backward accumulates parameter gradients into Param.Grad (callers zero them
// first), an eval-mode backward never does — it computes the input gradient
// only and leaves every Param.Grad untouched. Attacks differentiate the loss
// with respect to the input through eval-mode passes, so they neither pay for
// dW nor need to zero anything. Every parameterised layer latches the mode in
// Forward; containers inherit the rule from their children.
//
// A container may run layers as one operator where no bit moves: an eval-mode
// Sequential so runs a leading Conv2D → BatchNorm2D → ReLU [→ MaxPool2D]
// (evalRun), leaving each layer the state its own Forward would leave.
//
// Eval-mode passes are per-sample: batch norm reads its running statistics
// and every GEMM reduces over features, never over the batch, so an
// eval-mode batch split across identically loaded replicas (Replicas) moves
// no bit. FedProphet's server passes — validation, stage feature maps,
// perturbation collection — run that way on every worker slot's replica.
//
// OutShape and ForwardFLOPs describe the per-sample output geometry and
// forward cost given a per-sample input shape (excluding the batch
// dimension); they drive the memory/FLOPs cost model of internal/memmodel.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	OutShape(in []int) []int
	ForwardFLOPs(in []int) int64
	Name() string
}

// ZeroGrads clears the gradients of every parameter of the layer.
func ZeroGrads(l Layer) {
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
}

// NumParams returns the total number of scalar parameters in the layer.
func NumParams(l Layer) int {
	n := 0
	for _, p := range l.Params() {
		n += p.NumElems()
	}
	return n
}

// grow reslices a layer's per-batch cache to n, reallocating only if short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func prodInts(s []int) int {
	p := 1
	for _, v := range s {
		p *= v
	}
	return p
}
