// Package data provides the synthetic image-classification datasets that
// stand in for CIFAR-10 and Caltech-256 (a deliberate paper-scale
// substitution; docs/ARCHITECTURE.md places the package in the layer map),
// the paper's 80%/20% non-IID federated partition, and batching utilities.
//
// Images are class-structured: each class owns a smooth spatial prototype
// (a sum of random low-frequency sinusoids per channel); a sample is a convex
// mixture of its class prototype with a random "confuser" class plus Gaussian
// pixel noise, clamped to [0,1]. Small CNNs reach high clean accuracy on
// these tasks while standard-trained models remain genuinely vulnerable to
// ℓ∞-bounded attacks, which is the property every FedProphet experiment
// depends on.
//
//lint:deterministic
package data

import (
	"math"
	"math/rand"

	"fedprophet/internal/tensor"
)

// Dataset is an in-memory labelled image dataset.
type Dataset struct {
	Name       string
	X          []*tensor.Tensor // per-sample (C,H,W), values in [0,1]
	Y          []int
	InShape    []int
	NumClasses int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// SyntheticConfig controls synthetic dataset generation.
type SyntheticConfig struct {
	Name          string
	Classes       int
	Shape         []int // (C,H,W)
	TrainPerClass int
	TestPerClass  int
	NoiseStd      float64 // pixel noise σ
	MixMax        float64 // max confuser mixing coefficient
	Seed          int64
}

// CIFAR10SConfig returns the default CIFAR10-S surrogate configuration:
// 10 classes of 3×16×16 images.
func CIFAR10SConfig(trainPerClass, testPerClass int, seed int64) SyntheticConfig {
	return SyntheticConfig{
		Name: "CIFAR10-S", Classes: 10, Shape: []int{3, 16, 16},
		TrainPerClass: trainPerClass, TestPerClass: testPerClass,
		NoiseStd: 0.12, MixMax: 0.35, Seed: seed,
	}
}

// Caltech256SConfig returns the default Caltech256-S surrogate configuration:
// 32 classes of 3×24×24 images (scaled from 256 classes of 3×224×224).
func Caltech256SConfig(trainPerClass, testPerClass int, seed int64) SyntheticConfig {
	return SyntheticConfig{
		Name: "Caltech256-S", Classes: 32, Shape: []int{3, 24, 24},
		TrainPerClass: trainPerClass, TestPerClass: testPerClass,
		NoiseStd: 0.10, MixMax: 0.30, Seed: seed,
	}
}

type prototype struct {
	img []float64
}

// makePrototypes builds one smooth spatial pattern per class.
func makePrototypes(cfg SyntheticConfig, rng *rand.Rand) []prototype {
	c, h, w := cfg.Shape[0], cfg.Shape[1], cfg.Shape[2]
	protos := make([]prototype, cfg.Classes)
	for k := range protos {
		img := make([]float64, c*h*w)
		for ch := 0; ch < c; ch++ {
			// Sum of three random sinusoidal plane waves per channel.
			type wave struct{ fx, fy, phase, amp float64 }
			waves := make([]wave, 3)
			for i := range waves {
				waves[i] = wave{
					fx:    (rng.Float64()*2 - 1) * 3,
					fy:    (rng.Float64()*2 - 1) * 3,
					phase: rng.Float64() * 2 * math.Pi,
					amp:   0.10 + rng.Float64()*0.15,
				}
			}
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					v := 0.5
					for _, wv := range waves {
						v += wv.amp * math.Sin(2*math.Pi*(wv.fx*float64(x)/float64(w)+
							wv.fy*float64(y)/float64(h))+wv.phase)
					}
					img[ch*h*w+y*w+x] = v
				}
			}
		}
		protos[k] = prototype{img: img}
	}
	return protos
}

func sampleImage(cfg SyntheticConfig, protos []prototype, class int, rng *rand.Rand) *tensor.Tensor {
	n := len(protos[class].img)
	img := make([]float64, n)
	mix := rng.Float64() * cfg.MixMax
	other := rng.Intn(cfg.Classes)
	for other == class && cfg.Classes > 1 {
		other = rng.Intn(cfg.Classes)
	}
	po := protos[other].img
	pc := protos[class].img
	for i := 0; i < n; i++ {
		v := (1-mix)*pc[i] + mix*po[i] + rng.NormFloat64()*cfg.NoiseStd
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		img[i] = v
	}
	return tensor.FromSlice(img, cfg.Shape...)
}

// Generate produces a train/test pair from the configuration. The same seed
// always yields identical datasets.
func Generate(cfg SyntheticConfig) (train, test *Dataset) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	protos := makePrototypes(cfg, rng)

	build := func(perClass int) *Dataset {
		d := &Dataset{
			Name:       cfg.Name,
			InShape:    append([]int(nil), cfg.Shape...),
			NumClasses: cfg.Classes,
		}
		for k := 0; k < cfg.Classes; k++ {
			for i := 0; i < perClass; i++ {
				d.X = append(d.X, sampleImage(cfg, protos, k, rng))
				d.Y = append(d.Y, k)
			}
		}
		// Shuffle so class blocks are interleaved.
		rng.Shuffle(len(d.X), func(i, j int) {
			d.X[i], d.X[j] = d.X[j], d.X[i]
			d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
		})
		return d
	}
	return build(cfg.TrainPerClass), build(cfg.TestPerClass)
}

// Subset is an index view into a parent dataset — the local data of one
// federated client.
type Subset struct {
	Parent  *Dataset
	Indices []int
}

// Len returns the number of samples in the subset.
func (s *Subset) Len() int { return len(s.Indices) }

// Batch stacks the samples at ds indices idx into a (B,C,H,W) tensor plus
// labels.
func Batch(ds *Dataset, idx []int) (*tensor.Tensor, []int) {
	if len(idx) == 0 {
		panic("data: empty batch")
	}
	shape := append([]int{len(idx)}, ds.InShape...)
	x := tensor.New(shape...)
	per := x.Len() / len(idx)
	labels := make([]int, len(idx))
	for i, id := range idx {
		copy(x.Data[i*per:(i+1)*per], ds.X[id].Data)
		labels[i] = ds.Y[id]
	}
	return x, labels
}

// Batches splits indices into shuffled batches of size bs (the last partial
// batch is kept if it has at least 2 samples, else dropped so batch norm
// stays well-defined).
func Batches(indices []int, bs int, rng *rand.Rand) [][]int {
	idx := append([]int(nil), indices...)
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	if bs < 2 {
		return nil // no batch of ≥ 2 fits, and bs ≤ 0 would never advance
	}
	var out [][]int
	for start := 0; start < len(idx); start += bs {
		end := start + bs
		if end > len(idx) {
			end = len(idx)
		}
		if end-start >= 2 {
			out = append(out, idx[start:end])
		}
	}
	return out
}
