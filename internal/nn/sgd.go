package nn

import (
	"fedprophet/internal/tensor"
)

// SGD is stochastic gradient descent with classical momentum and decoupled
// L2 weight decay, matching the paper's training hyperparameters
// (momentum 0.9, weight decay 1e-4, exponential LR decay).
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
}

// NewSGD constructs the optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay}
}

// Step applies one update to each parameter:
//
//	v ← momentum·v + grad + wd·w;  w ← w − lr·v
//
// and leaves the gradients untouched (callers zero them explicitly).
func (o *SGD) Step(params []*Param) {
	for _, p := range params {
		if p.momentum == nil {
			p.momentum = tensor.New(p.Data.Shape()...)
		}
		wd := o.WeightDecay
		if p.NoDecay {
			wd = 0
		}
		v := p.momentum.Data
		w := p.Data.Data
		g := p.Grad.Data
		for i := range w {
			v[i] = o.Momentum*v[i] + g[i] + wd*w[i]
			w[i] -= o.LR * v[i]
		}
	}
}

// ResetMomentum clears the optimizer state of the given parameters. Federated
// clients start each local training phase with fresh optimizer state.
func ResetMomentum(params []*Param) {
	for _, p := range params {
		p.momentum = nil
	}
}

// OptimizerStatesPerParam reports how many scalar optimizer-state values SGD
// keeps per parameter (the momentum buffer). The memory cost model uses this.
const OptimizerStatesPerParam = 1
