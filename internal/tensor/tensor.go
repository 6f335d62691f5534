// Package tensor provides a minimal dense float64 tensor library used by the
// neural-network substrate of FedProphet. It supports n-dimensional shapes,
// row-major storage, elementwise arithmetic, matrix multiplication, reductions
// and norms. It deliberately avoids views with non-contiguous strides: every
// tensor owns a contiguous buffer, which keeps the backprop code simple and
// the memory accounting exact.
//
// The package is deterministic: given the same inputs (including explicit
// rand sources for initializers) every operation reproduces the same bits,
// so federated runs can be replayed and compared exactly.
//
//lint:deterministic
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense, row-major, contiguous n-dimensional array of float64.
type Tensor struct {
	Data  []float64
	shape []int
}

// New creates a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("tensor: invalid dimension %d in shape %v", s, shape))
		}
		n *= s
	}
	return &Tensor{Data: make([]float64, n), shape: append([]int(nil), shape...)}
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); len(data) must equal the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{Data: data, shape: append([]int(nil), shape...)}
}

// Randn fills a new tensor with N(0, std²) samples drawn from rng.
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// Uniform fills a new tensor with U[lo, hi) samples drawn from rng.
func Uniform(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = lo + rng.Float64()*(hi-lo)
	}
	return t
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated by the caller.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// NumDims returns the number of dimensions.
func (t *Tensor) NumDims() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor sharing t's buffer with a new shape of equal
// element count.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)",
			t.shape, len(t.Data), shape, n))
	}
	return &Tensor{Data: t.Data, shape: append([]int(nil), shape...)}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.Data[t.offset(idx)]
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", idx, t.shape))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// Zero sets all elements to zero in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v in place.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// AddInPlace computes t += o elementwise.
func (t *Tensor) AddInPlace(o *Tensor) *Tensor {
	mustMatch(t, o, "AddInPlace")
	for i, v := range o.Data {
		t.Data[i] += v
	}
	return t
}

// SubInPlace computes t -= o elementwise.
func (t *Tensor) SubInPlace(o *Tensor) *Tensor {
	mustMatch(t, o, "SubInPlace")
	for i, v := range o.Data {
		t.Data[i] -= v
	}
	return t
}

// Add returns t + o as a new tensor.
func Add(t, o *Tensor) *Tensor {
	mustMatch(t, o, "Add")
	r := t.Clone()
	return r.AddInPlace(o)
}

// Sub returns t - o as a new tensor.
func Sub(t, o *Tensor) *Tensor {
	mustMatch(t, o, "Sub")
	r := t.Clone()
	return r.SubInPlace(o)
}

// ClampInPlace clips every element into [lo, hi].
func (t *Tensor) ClampInPlace(lo, hi float64) *Tensor {
	for i, v := range t.Data {
		if v < lo {
			t.Data[i] = lo
		} else if v > hi {
			t.Data[i] = hi
		}
	}
	return t
}

// Dot returns the inner product of t and o viewed as flat vectors.
func Dot(t, o *Tensor) float64 {
	mustMatch(t, o, "Dot")
	s := 0.0
	for i, v := range t.Data {
		s += v * o.Data[i]
	}
	return s
}

// L2Norm returns the Euclidean norm of the flattened tensor.
//
//lint:ignore unusedexport the attack, cascade and nn tests measure perturbations and weights with it
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// ArgMaxRow returns, for a 2-D tensor, the argmax of row r.
func (t *Tensor) ArgMaxRow(r int) int {
	if len(t.shape) != 2 {
		panic("tensor: ArgMaxRow requires a 2-D tensor")
	}
	cols := t.shape[1]
	row := t.Data[r*cols : (r+1)*cols]
	best, bv := 0, row[0]
	for i, v := range row {
		if v > bv {
			best, bv = i, v
		}
	}
	return best
}

func mustMatch(a, b *Tensor, op string) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// String renders a compact description for debugging.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}
