package nn

import (
	"fmt"
	"math"

	"fedprophet/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// (B, K) against integer labels, returning the loss value and the gradient
// with respect to the logits (already divided by the batch size).
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	bsz, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != bsz {
		panic("nn: label count does not match batch size")
	}
	grad := tensor.New(bsz, k)
	loss := 0.0
	inv := 1.0 / float64(bsz)
	for b := 0; b < bsz; b++ {
		row := logits.Data[b*k : (b+1)*k]
		grow := grad.Data[b*k : (b+1)*k]
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for i, v := range row {
			e := math.Exp(v - maxv)
			grow[i] = e
			sum += e
		}
		y := labels[b]
		loss += -math.Log(grow[y]/sum + 1e-300)
		for i := range grow {
			grow[i] = grow[i] / sum * inv
		}
		grow[y] -= inv
	}
	return loss * inv, grad
}

// Softmax returns row-wise softmax probabilities of logits (B, K).
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	bsz, k := logits.Dim(0), logits.Dim(1)
	out := tensor.New(bsz, k)
	for b := 0; b < bsz; b++ {
		row := logits.Data[b*k : (b+1)*k]
		orow := out.Data[b*k : (b+1)*k]
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for i, v := range row {
			e := math.Exp(v - maxv)
			orow[i] = e
			sum += e
		}
		for i := range orow {
			orow[i] /= sum
		}
	}
	return out
}

// CWMarginLoss computes the Carlini–Wagner margin loss
// mean_b (max_{j≠y} z_j − z_y) and its gradient with respect to the logits.
// Maximizing this loss drives misclassification; it is the second attack in
// our AutoAttack-style ensemble. The runner-up j is the first j ≠ y holding
// the largest logit; when no other logit exceeds −Inf (a diverged model's NaN
// row), it is the first j ≠ y, so the gradient stays in the sample's own row.
func CWMarginLoss(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	bsz, k := logits.Dim(0), logits.Dim(1)
	if k < 2 {
		panic(fmt.Sprintf("nn: CWMarginLoss needs at least 2 classes, got %d", k))
	}
	grad := tensor.New(bsz, k)
	loss := 0.0
	inv := 1.0 / float64(bsz)
	for b := 0; b < bsz; b++ {
		row := logits.Data[b*k : (b+1)*k]
		y := labels[b]
		bestJ, bestV := 0, math.Inf(-1)
		if y == 0 {
			bestJ = 1
		}
		for j, v := range row {
			if j != y && v > bestV {
				bestJ, bestV = j, v
			}
		}
		loss += (bestV - row[y]) * inv
		grad.Data[b*k+bestJ] += inv
		grad.Data[b*k+y] -= inv
	}
	return loss, grad
}

// KLDivergence computes mean KL(p ‖ softmax(logits)) for teacher
// probabilities p and student logits, with the gradient w.r.t. the logits.
// Used by the knowledge-distillation baselines (FedDF-AT, FedET-AT).
func KLDivergence(logits, teacherProbs *tensor.Tensor) (float64, *tensor.Tensor) {
	bsz, k := logits.Dim(0), logits.Dim(1)
	probs := Softmax(logits)
	grad := tensor.New(bsz, k)
	loss := 0.0
	inv := 1.0 / float64(bsz)
	for b := 0; b < bsz; b++ {
		for j := 0; j < k; j++ {
			p := teacherProbs.Data[b*k+j]
			q := probs.Data[b*k+j]
			if p > 1e-12 {
				loss += p * math.Log(p/(q+1e-300)) * inv
			}
			grad.Data[b*k+j] = (q - p) * inv
		}
	}
	return loss, grad
}
