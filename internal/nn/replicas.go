package nn

import (
	"runtime"

	"fedprophet/internal/tensor"
)

// Replicas is an eval-only layer over structurally identical layers that the
// caller has loaded with the same weights. Forward cuts the batch into
// min(len(replicas), B, GOMAXPROCS) contiguous, near-equal slices — more
// slices than cores would only shrink each GEMM — runs one slice per replica
// on the tensor worker pool and concatenates the outputs in batch order;
// Backward cuts the gradient the same way.
//
// Every eval-mode layer treats the samples of a batch independently and
// reduces each output element in a batch-independent order (batch norm reads
// its running statistics, every GEMM reduces over features), so the result
// is bit-equal to one replica running the whole batch, and — as for any
// eval-mode pass — no Param.Grad is touched. A train-mode Forward panics:
// batch statistics couple the samples. The container is a transient view for
// one pass: load, export and scratch release act on the replicas themselves.
type Replicas struct {
	replicas []Layer
	bounds   []int // slice i of the last Forward is samples [bounds[i], bounds[i+1])
}

// NewReplicas builds the container; replicas[0] stands for all of them in
// Params, OutShape and ForwardFLOPs.
func NewReplicas(replicas ...Layer) *Replicas {
	if len(replicas) == 0 {
		panic("nn: Replicas needs at least one replica")
	}
	return &Replicas{replicas: replicas}
}

// Forward runs the eval-mode pass of x split across the replicas.
func (r *Replicas) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		panic("nn: Replicas runs eval-mode passes only")
	}
	bsz := x.Dim(0)
	n := min(len(r.replicas), bsz, runtime.GOMAXPROCS(0))
	r.bounds = grow(r.bounds, n+1)
	for i := range r.bounds {
		r.bounds[i] = i * bsz / n
	}
	return r.each(x, func(l Layer, t *tensor.Tensor) *tensor.Tensor { return l.Forward(t, false) })
}

// Backward returns the input gradient of the last Forward, slice by slice.
func (r *Replicas) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return r.each(grad, Layer.Backward)
}

// each applies f to slice i of t on replica i, concurrently, and concatenates
// the results along the batch.
func (r *Replicas) each(t *tensor.Tensor, f func(Layer, *tensor.Tensor) *tensor.Tensor) *tensor.Tensor {
	n := len(r.bounds) - 1
	if n == 1 {
		return f(r.replicas[0], t)
	}
	per := t.Len() / t.Dim(0)
	rest := t.Shape()[1:]
	outs := make([]*tensor.Tensor, n)
	tensor.ParallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a, b := r.bounds[i]*per, r.bounds[i+1]*per
			outs[i] = f(r.replicas[i], tensor.FromSlice(t.Data[a:b:b], append([]int{r.bounds[i+1] - r.bounds[i]}, rest...)...))
		}
	})
	out := tensor.New(append([]int{t.Dim(0)}, outs[0].Shape()[1:]...)...)
	off := 0
	for _, o := range outs {
		off += copy(out.Data[off:], o.Data)
	}
	return out
}

// Params returns the first replica's parameters.
func (r *Replicas) Params() []*Param { return r.replicas[0].Params() }

// OutShape returns the replicas' per-sample output shape.
func (r *Replicas) OutShape(in []int) []int { return r.replicas[0].OutShape(in) }

// ForwardFLOPs returns one replica's per-sample forward cost.
func (r *Replicas) ForwardFLOPs(in []int) int64 { return r.replicas[0].ForwardFLOPs(in) }

// Name identifies the container.
func (r *Replicas) Name() string { return "replicas(" + r.replicas[0].Name() + ")" }
