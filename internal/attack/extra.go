package attack

import (
	"math"
	"math/rand"

	"fedprophet/internal/nn"
	"fedprophet/internal/tensor"
)

// MIFGSM is the momentum iterative FGSM attack (Dong et al. 2018): PGD whose
// ascent direction is the sign of an accumulated, L1-normalized gradient
// momentum. It transfers better across models than plain PGD and provides a
// differently-biased member for attack ensembles.
func MIFGSM(eps float64, steps int, decay float64, x *tensor.Tensor, grad GradFn, rng *rand.Rand) *tensor.Tensor {
	adv := x.Clone()
	stepSize := eps / float64(steps)
	momentum := tensor.New(x.Shape()...)
	for s := 0; s < steps; s++ {
		_, g := grad(adv)
		// L1-normalize the gradient per sample before accumulating.
		bsz := x.Dim(0)
		per := x.Len() / bsz
		for b := 0; b < bsz; b++ {
			gs := g.Data[b*per : (b+1)*per]
			l1 := 0.0
			for _, v := range gs {
				l1 += math.Abs(v)
			}
			if l1 == 0 {
				continue
			}
			inv := 1.0 / l1
			ms := momentum.Data[b*per : (b+1)*per]
			for i := range gs {
				ms[i] = decay*ms[i] + gs[i]*inv
			}
		}
		for i := range adv.Data {
			if momentum.Data[i] > 0 {
				adv.Data[i] += stepSize
			} else if momentum.Data[i] < 0 {
				adv.Data[i] -= stepSize
			}
		}
		cfg := Config{Eps: eps, Norm: LInf, ClampMin: 0, ClampMax: 1}
		projectAndClamp(cfg, adv, x)
	}
	return adv
}

// LossFn evaluates only the attacked loss (no gradient), for gradient-free
// attacks.
type LossFn func(x *tensor.Tensor) float64

// SquareAttack is a simplified gradient-free random-search attack in the
// spirit of Andriushchenko et al. (2020): at each iteration a random square
// patch of a random sample is set to ±eps (vertical stripes per channel),
// and the change is kept only if the loss increases. Real AutoAttack includes
// Square as its black-box member; this surrogate plays the same role of
// catching gradient-masked models.
func SquareAttack(eps float64, iters int, x *tensor.Tensor, loss LossFn, rng *rand.Rand) *tensor.Tensor {
	if x.NumDims() != 4 {
		panic("attack: SquareAttack expects NCHW input")
	}
	adv := x.Clone()
	bsz, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	best := loss(adv)
	for it := 0; it < iters; it++ {
		// Patch side shrinks over time, as in the original schedule.
		frac := 0.4 * math.Pow(0.5, float64(4*it)/float64(iters+1))
		side := int(math.Max(1, math.Round(frac*float64(min(h, w)))))
		b := rng.Intn(bsz)
		py := rng.Intn(h - side + 1)
		px := rng.Intn(w - side + 1)

		saved := make([]float64, 0, c*side*side)
		for ch := 0; ch < c; ch++ {
			sign := eps
			if rng.Intn(2) == 0 {
				sign = -eps
			}
			for dy := 0; dy < side; dy++ {
				for dx := 0; dx < side; dx++ {
					idx := ((b*c+ch)*h+py+dy)*w + px + dx
					saved = append(saved, adv.Data[idx])
					v := x.Data[idx] + sign
					if v < 0 {
						v = 0
					} else if v > 1 {
						v = 1
					}
					adv.Data[idx] = v
				}
			}
		}
		cur := loss(adv)
		if cur > best {
			best = cur
		} else {
			// Revert.
			si := 0
			for ch := 0; ch < c; ch++ {
				for dy := 0; dy < side; dy++ {
					for dx := 0; dx < side; dx++ {
						idx := ((b*c+ch)*h+py+dy)*w + px + dx
						adv.Data[idx] = saved[si]
						si++
					}
				}
			}
		}
	}
	return adv
}

// CELossFn adapts a model to a LossFn on the cross-entropy objective.
func CELossFn(model nn.Layer, labels []int) LossFn {
	return func(x *tensor.Tensor) float64 {
		out := model.Forward(x, false)
		l, _ := nn.SoftmaxCrossEntropy(out, labels)
		return l
	}
}
