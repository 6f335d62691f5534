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
	// BuildSmall constructs the workload's small model (Table 1).
	BuildSmall func(*rand.Rand) *nn.Model
	// KDGroup is the architecture family of the knowledge-distillation
	// baselines, ordered small → large.
	KDGroup []func(*rand.Rand) *nn.Model
	// DistillIters is the KD baselines' server-side distillation budget.
	DistillIters int

	// FedProphet coordinator knobs (§6, Table 3).
	RminFrac        float64
	RoundsPerModule int
	Patience        int
	Mu              float64
	AlphaInit       float64
	DeltaAlpha      float64
	GammaThresh     float64
	UseAPA          bool
	UseDMA          bool
	FeaturePGDSteps int
	ValSize         int
	ValPGD          int
	UploadBits      int
	// UploadChunk, when > 0, switches upload quantization from one scale
	// per vector to one scale per chunk of UploadChunk values (the wire
	// codec's form; see internal/quant.QuantizeChunks).
	UploadChunk int
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
