package fl

import (
	"fedprophet/internal/attack"
)

// Attack builds the input-space attack configuration used during local
// adversarial training. Implementations translate the experiment's (ε,
// step-budget) pair into a concrete attack; the default is the paper's
// ℓ∞ PGD.
type Attack interface {
	Name() string
	// Config returns the attack configuration for budget eps and the
	// method's configured step count.
	Config(eps float64, steps int) attack.Config
}

// PGDAttack is the paper's training attack: ℓ∞ PGD with the standard
// step-size schedule.
type PGDAttack struct{}

// Name identifies the attack.
func (PGDAttack) Name() string { return "pgd" }

// Config builds the PGD configuration.
func (PGDAttack) Config(eps float64, steps int) attack.Config {
	return attack.PGDConfig(eps, steps)
}

// FGSMAttack is single-step FGSM: one full-ε signed-gradient step. The
// steps argument is ignored beyond enabling the attack.
type FGSMAttack struct{}

// Name identifies the attack.
func (FGSMAttack) Name() string { return "fgsm" }

// Config builds the FGSM configuration.
func (FGSMAttack) Config(eps float64, _ int) attack.Config {
	return attack.FGSMConfig(eps)
}

// NoAttack disables adversarial training entirely (standard FedAvg-style
// local SGD), whatever the configured PGD step count.
type NoAttack struct{}

// Name identifies the attack.
func (NoAttack) Name() string { return "none" }

// Config returns the zero configuration, which trainers interpret as
// "no perturbation".
func (NoAttack) Config(float64, int) attack.Config { return attack.Config{} }

// TrainAttackConfig resolves the local-training attack for the given step
// budget through the pluggable Attack, defaulting to PGD. steps ≤ 0 yields
// the zero config (standard training).
func (e *Env) TrainAttackConfig(steps int) attack.Config {
	if steps <= 0 {
		return attack.Config{}
	}
	a := e.TrainAttack
	if a == nil {
		a = PGDAttack{}
	}
	return a.Config(e.Cfg.Eps, steps)
}
