package nn

import (
	"fmt"

	"fedprophet/internal/tensor"
)

// MaxPool2D is a max pooling layer with square window and stride equal to
// the window size (the configuration used throughout the VGG family).
type MaxPool2D struct {
	Kernel int

	argmax  []int // flat input index of each output element
	inShape []int
}

// NewMaxPool2D constructs a max-pool with window k × k and stride k.
func NewMaxPool2D(k int) *MaxPool2D { return &MaxPool2D{Kernel: k} }

// Forward computes the pooled output and caches the winning indices.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	bsz, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := m.begin(bsz, c, h, w)
	ohow := (h / m.Kernel) * (w / m.Kernel)
	for p := 0; p < bsz*c; p++ {
		m.poolPlane(out.Data[p*ohow:(p+1)*ohow], x.Data[p*h*w:(p+1)*h*w], p, w)
	}
	return out
}

// begin caches the input shape of a forward pass, sizes argmax for it and
// returns the pooled output tensor.
func (m *MaxPool2D) begin(bsz, c, h, w int) *tensor.Tensor {
	if k := m.Kernel; h%k != 0 || w%k != 0 {
		panic(fmt.Sprintf("nn: MaxPool2D input %dx%d is not divisible by kernel %d; trailing rows/cols would be silently dropped", h, w, k))
	}
	m.inShape = append(m.inShape[:0], bsz, c, h, w)
	m.argmax = grow(m.argmax, bsz*c*(h/m.Kernel)*(w/m.Kernel))
	return tensor.New(bsz, c, h/m.Kernel, w/m.Kernel)
}

// poolPlane pools plane p (image·channels + channel) of the input, in (w
// wide), into out: each window's first maximum in row-major order, a NaN in
// first place kept. The winners' flat input indices go to plane p of argmax.
func (m *MaxPool2D) poolPlane(out, in []float64, p, w int) {
	k := m.Kernel
	ow := w / k
	argmax := m.argmax[p*len(out) : (p+1)*len(out)]
	for j, y0 := 0, 0; j < len(out); j, y0 = j+ow, y0+k {
		for ox := 0; ox < ow; ox++ {
			bestIdx, bestVal := -1, 0.0
			for iy := y0; iy < y0+k; iy++ {
				for ix := ox * k; ix < (ox+1)*k; ix++ {
					if v := in[iy*w+ix]; bestIdx < 0 || v > bestVal {
						bestIdx, bestVal = iy*w+ix, v
					}
				}
			}
			out[j+ox], argmax[j+ox] = bestVal, p*len(in)+bestIdx
		}
	}
}

// Backward routes each output gradient to the winning input position.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(m.inShape...)
	for i, g := range grad.Data {
		dx.Data[m.argmax[i]] += g
	}
	return dx
}

// Params returns nil: pooling is parameter-free.
func (m *MaxPool2D) Params() []*Param { return nil }

// OutShape maps (C,H,W) to (C,H/k,W/k).
func (m *MaxPool2D) OutShape(in []int) []int {
	return []int{in[0], in[1] / m.Kernel, in[2] / m.Kernel}
}

// ForwardFLOPs counts one comparison per input element.
func (m *MaxPool2D) ForwardFLOPs(in []int) int64 { return int64(prodInts(in)) }

// Name identifies the layer kind.
func (m *MaxPool2D) Name() string { return "maxpool2d" }

// GlobalAvgPool2D averages each channel plane to a single value,
// mapping (B,C,H,W) to (B,C).
type GlobalAvgPool2D struct {
	inShape []int
}

// NewGlobalAvgPool2D constructs a global average pooling layer.
func NewGlobalAvgPool2D() *GlobalAvgPool2D { return &GlobalAvgPool2D{} }

// Forward averages over the spatial dimensions.
func (g *GlobalAvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	bsz, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	g.inShape = append(g.inShape[:0], x.Shape()...)
	out := tensor.New(bsz, c)
	hw := h * w
	inv := 1.0 / float64(hw)
	for b := 0; b < bsz; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * hw
			s := 0.0
			for i := 0; i < hw; i++ {
				s += x.Data[base+i]
			}
			out.Data[b*c+ch] = s * inv
		}
	}
	return out
}

// Backward spreads each channel gradient uniformly over the plane.
func (g *GlobalAvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	bsz, c, h, w := g.inShape[0], g.inShape[1], g.inShape[2], g.inShape[3]
	dx := tensor.New(g.inShape...)
	hw := h * w
	inv := 1.0 / float64(hw)
	for b := 0; b < bsz; b++ {
		for ch := 0; ch < c; ch++ {
			gv := grad.Data[b*c+ch] * inv
			base := (b*c + ch) * hw
			for i := 0; i < hw; i++ {
				dx.Data[base+i] = gv
			}
		}
	}
	return dx
}

// Params returns nil: pooling is parameter-free.
func (g *GlobalAvgPool2D) Params() []*Param { return nil }

// OutShape maps (C,H,W) to (C).
func (g *GlobalAvgPool2D) OutShape(in []int) []int { return []int{in[0]} }

// ForwardFLOPs counts one add per input element.
func (g *GlobalAvgPool2D) ForwardFLOPs(in []int) int64 { return int64(prodInts(in)) }

// Name identifies the layer kind.
func (g *GlobalAvgPool2D) Name() string { return "gap2d" }
