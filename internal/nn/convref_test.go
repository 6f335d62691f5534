package nn

import "fedprophet/internal/tensor"

// directConv runs a Conv2D's own parameters through the original direct
// loops: the reference the batch-folded GEMM layer is verified against. It
// implements Layer, so it can stand in for a Conv2D anywhere in a model.
type directConv struct {
	*Conv2D
	x *tensor.Tensor // cached input
}

// swapDirectConvs replaces every Conv2D held directly by a Model or
// Sequential in the tree with a directConv wrapping the same Params.
func swapDirectConvs(l Layer) {
	var layers []Layer
	switch v := l.(type) {
	case *Model:
		layers = v.Atoms
	case *Sequential:
		layers = v.Layers
	}
	for i, sub := range layers {
		if c, ok := sub.(*Conv2D); ok {
			layers[i] = &directConv{Conv2D: c}
			continue
		}
		swapDirectConvs(sub)
	}
}

func (c *directConv) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	bsz, inC, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if inC != c.InC {
		panic("nn: Conv2D channel mismatch")
	}
	oh, ow := c.outDims(h, w)
	c.x, c.inH, c.inW, c.outH, c.outW = x, h, w, oh, ow
	c.trained = train

	out := tensor.New(bsz, c.OutC, oh, ow)
	c.forwardDirect(x, out, bsz, h, w, oh, ow)
	return out
}

func (c *directConv) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return c.backwardDirect(grad)
}

// forwardDirect is the original direct-loop implementation.
func (c *directConv) forwardDirect(x, out *tensor.Tensor, bsz, h, w, oh, ow int) {
	inC := c.InC
	k, st, pad := c.Kernel, c.Stride, c.Pad
	wd := c.W.Data.Data
	for b := 0; b < bsz; b++ {
		xb := x.Data[b*inC*h*w : (b+1)*inC*h*w]
		ob := out.Data[b*c.OutC*oh*ow : (b+1)*c.OutC*oh*ow]
		for oc := 0; oc < c.OutC; oc++ {
			bias := 0.0
			if c.hasBias {
				bias = c.B.Data.Data[oc]
			}
			oplane := ob[oc*oh*ow : (oc+1)*oh*ow]
			for ic := 0; ic < inC; ic++ {
				xplane := xb[ic*h*w : (ic+1)*h*w]
				wBase := ((oc*inC + ic) * k) * k
				for kh := 0; kh < k; kh++ {
					for kw := 0; kw < k; kw++ {
						wv := wd[wBase+kh*k+kw]
						if wv == 0 {
							continue
						}
						for oy := 0; oy < oh; oy++ {
							iy := oy*st + kh - pad
							if iy < 0 || iy >= h {
								continue
							}
							xrow := xplane[iy*w : (iy+1)*w]
							orow := oplane[oy*ow : (oy+1)*ow]
							for ox := 0; ox < ow; ox++ {
								ix := ox*st + kw - pad
								if ix < 0 || ix >= w {
									continue
								}
								orow[ox] += wv * xrow[ix]
							}
						}
					}
				}
			}
			if bias != 0 {
				for i := range oplane {
					oplane[i] += bias
				}
			}
		}
	}
}

// backwardDirect is the original direct-loop implementation.
func (c *directConv) backwardDirect(grad *tensor.Tensor) *tensor.Tensor {
	bsz := grad.Dim(0)
	h, w, oh, ow := c.inH, c.inW, c.outH, c.outW
	k, st, pad := c.Kernel, c.Stride, c.Pad
	dx := tensor.New(bsz, c.InC, h, w)
	wd := c.W.Data.Data
	wg := c.W.Grad.Data

	for b := 0; b < bsz; b++ {
		xb := c.x.Data[b*c.InC*h*w : (b+1)*c.InC*h*w]
		gb := grad.Data[b*c.OutC*oh*ow : (b+1)*c.OutC*oh*ow]
		dxb := dx.Data[b*c.InC*h*w : (b+1)*c.InC*h*w]
		for oc := 0; oc < c.OutC; oc++ {
			gplane := gb[oc*oh*ow : (oc+1)*oh*ow]
			if c.hasBias && c.trained {
				s := 0.0
				for _, v := range gplane {
					s += v
				}
				c.B.Grad.Data[oc] += s
			}
			for ic := 0; ic < c.InC; ic++ {
				xplane := xb[ic*h*w : (ic+1)*h*w]
				dxplane := dxb[ic*h*w : (ic+1)*h*w]
				wBase := ((oc*c.InC + ic) * k) * k
				for kh := 0; kh < k; kh++ {
					for kw := 0; kw < k; kw++ {
						wv := wd[wBase+kh*k+kw]
						dwAcc := 0.0
						for oy := 0; oy < oh; oy++ {
							iy := oy*st + kh - pad
							if iy < 0 || iy >= h {
								continue
							}
							xrow := xplane[iy*w : (iy+1)*w]
							dxrow := dxplane[iy*w : (iy+1)*w]
							grow := gplane[oy*ow : (oy+1)*ow]
							for ox := 0; ox < ow; ox++ {
								ix := ox*st + kw - pad
								if ix < 0 || ix >= w {
									continue
								}
								g := grow[ox]
								dwAcc += g * xrow[ix]
								dxrow[ix] += g * wv
							}
						}
						if c.trained {
							wg[wBase+kh*k+kw] += dwAcc
						}
					}
				}
			}
		}
	}
	return dx
}
