package fl

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"fedprophet/internal/nn"
)

// MethodParams carries everything a registered method factory may need to
// instantiate itself for a workload: the model builders plus the
// coordinator hyperparameters that are not part of the shared Config.
// Packages fill only the fields their methods consume.
type MethodParams struct {
	// BuildLarge constructs the workload's large backbone (VGG16-S /
	// ResNet34-S in the paper); used by jFAT, the partial-training family,
	// FedRBN and FedProphet.
	BuildLarge func(*rand.Rand) *nn.Model
	// KDGroup is the architecture family of the knowledge-distillation
	// baselines, ordered small → large.
	KDGroup []func(*rand.Rand) *nn.Model

	// FedProphet coordinator knobs (§6, Table 3), read as given; the
	// defaults live in internal/exp.ParamsFor.

	// RminFrac sets the minimal reserved memory as a fraction of the
	// full-model training requirement (0.2 in the paper).
	RminFrac float64
	// RoundsPerModule caps the communication rounds spent per module; the
	// paper uses 500 with early stopping.
	RoundsPerModule int
	// Patience stops a module stage early when validation adversarial
	// accuracy has not improved for this many rounds (50 in the paper).
	Patience int
	// Mu is the strong-convexity regularization coefficient (Eq. 9).
	Mu float64
	// AlphaInit is APA's initial scaling factor α (§6.2).
	AlphaInit float64
	// UseAPA / UseDMA toggle the coordinator components (Table 3 ablation).
	UseAPA, UseDMA bool
	// ValSize is the sample size of the per-round validation APA reads.
	ValSize int
}

// MethodFactory instantiates a Method for one workload's parameters.
type MethodFactory func(MethodParams) Method

var methodRegistry = struct {
	sync.RWMutex
	factories map[string]MethodFactory
}{factories: map[string]MethodFactory{}}

// RegisterMethod adds a named method factory to the global registry.
// Training packages self-register from init; registering the same name
// twice panics to surface wiring mistakes early.
func RegisterMethod(name string, factory MethodFactory) {
	if name == "" || factory == nil {
		panic("fl: RegisterMethod needs a name and a factory")
	}
	methodRegistry.Lock()
	defer methodRegistry.Unlock()
	if _, dup := methodRegistry.factories[name]; dup {
		panic(fmt.Sprintf("fl: method %q registered twice", name))
	}
	methodRegistry.factories[name] = factory
}

// NewMethod instantiates a registered method by name.
func NewMethod(name string, p MethodParams) (Method, error) {
	methodRegistry.RLock()
	factory := methodRegistry.factories[name]
	methodRegistry.RUnlock()
	if factory == nil {
		return nil, fmt.Errorf("fl: unknown method %q (registered: %v)", name, MethodNames())
	}
	return factory(p), nil
}

// MethodNames lists the registered methods in sorted order.
func MethodNames() []string {
	methodRegistry.RLock()
	defer methodRegistry.RUnlock()
	names := make([]string, 0, len(methodRegistry.factories))
	for n := range methodRegistry.factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
