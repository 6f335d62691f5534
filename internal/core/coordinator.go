// Package core implements FedProphet itself (paper Algorithm 2): module-wise
// federated adversarial training over a cascade partition, the server-side
// training coordinator with Adaptive Perturbation Adjustment (APA, §6.2,
// Eqs. 11–12) and Differentiated Module Assignment (DMA, §6.3, Eqs. 14–15),
// and the partial-average model aggregator (§6.4, Eqs. 16–17).
//
//lint:deterministic
package core

import (
	"fedprophet/internal/cascade"
)

// APA's step Δα and dead-zone half-width γ (§6.2), and the PGD steps of
// the per-round validation it reads.
const (
	deltaAlpha = 0.1
	gamma      = 0.05
	valPGD     = 3
)

// APAState tracks Adaptive Perturbation Adjustment for the module currently
// in training. The perturbation constraint is
//
//	ε(t) = α(t) · E[max ‖Δz‖]                     (Eq. 11)
//
// where the expectation was collected when the previous module was fixed,
// and α(t) moves by ±Δα when the clean/adversarial validation accuracy ratio
// drifts more than γ away from the previous module's final ratio (Eq. 12).
type APAState struct {
	Alpha    float64 // α(t)
	BasePert float64 // E[max‖Δz_{m-1}‖] collected from clients
	// PrevRatio is C*_{m-1}/A*_{m-1}, the utility/robustness balance of the
	// previously fixed cascade.
	PrevRatio float64
	Enabled   bool
}

// NewAPAState initializes APA for one module stage.
func NewAPAState(alphaInit, basePert, prevRatio float64, enabled bool) *APAState {
	return &APAState{Alpha: alphaInit, BasePert: basePert, PrevRatio: prevRatio, Enabled: enabled}
}

// Eps returns the current perturbation constraint ε(t) = α(t)·basePert.
func (s *APAState) Eps() float64 { return s.Alpha * s.BasePert }

// Update applies Eq. (12) given this round's validation clean accuracy C and
// adversarial accuracy A of the cascaded modules. When APA is disabled the
// scaling factor stays fixed.
func (s *APAState) Update(cleanAcc, advAcc float64) {
	if !s.Enabled || s.PrevRatio <= 0 {
		return
	}
	if advAcc <= 0 {
		// Robustness collapsed: the ratio is effectively infinite, raise ε.
		s.Alpha += deltaAlpha
		return
	}
	ratio := cleanAcc / advAcc
	switch {
	case ratio > (1+gamma)*s.PrevRatio:
		s.Alpha += deltaAlpha
	case ratio < (1-gamma)*s.PrevRatio:
		s.Alpha -= deltaAlpha
	}
	if s.Alpha < 0 {
		s.Alpha = 0
	}
}

// AssignModules implements Differentiated Module Assignment (Eqs. 14–15):
// given the module currently in training m, a client's memory budget
// (cost-model bytes) and relative performance, choose the largest M_k such
// that
//
//	RangeMemReq(m, M_k)     ≤ budget            (Eq. 14)
//	RangeFLOPs(m, M_k)      ≤ perf/perfMin · ModuleFLOPs(m)   (Eq. 15)
//
// With DMA disabled every client trains exactly module m.
func AssignModules(c *cascade.Cascade, m int, memBudget int64, perf, perfMin float64, dma bool) int {
	if !dma {
		return m
	}
	limit := int64(float64(c.RangeForwardFLOPs(m, m)) * perf / perfMin)
	best := m
	for to := m; to < len(c.Modules); to++ {
		if c.RangeMemReq(m, to) > memBudget {
			break
		}
		if c.RangeForwardFLOPs(m, to) > limit {
			break
		}
		best = to
	}
	return best
}
