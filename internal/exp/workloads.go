// Package exp is the experiment harness of the FedProphet reproduction. It
// wires datasets, device fleets, models and methods into the exact
// table/figure generators of the paper's evaluation (§7), shared by the
// cmd/experiments binary and the repository-level benchmarks.
package exp

import (
	"fmt"
	"math/rand"
	"runtime"

	"fedprophet/internal/data"
	"fedprophet/internal/device"
	"fedprophet/internal/fl"
	"fedprophet/internal/nn"
)

// Scale selects how big an experiment run is. Quick keeps every generator
// fast enough for `go test -bench`; Full is for the cmd/experiments binary.
type Scale struct {
	Name            string // "quick", "trimmed" or "full"; "full" also picks Caltech256S's full-size shapes
	TrainPerClass   int
	TestPerClass    int
	ValFrac         float64
	PublicFrac      float64
	Width           int // model width multiplier
	Rounds          int // baseline communication rounds
	RoundsPerModule int // FedProphet rounds per module stage
	LocalIters      int
	NumClients      int
	ClientsPerRound int
	TrainPGD        int
	EvalPGD         int
	EvalAASteps     int
	ValSize         int
}

// QuickScale is used by tests and benchmarks.
func QuickScale() Scale {
	return Scale{
		Name:          "quick",
		TrainPerClass: 60, TestPerClass: 10,
		ValFrac: 0.1, PublicFrac: 0.08,
		Width:  4,
		Rounds: 12, RoundsPerModule: 12, LocalIters: 8,
		NumClients: 10, ClientsPerRound: 5,
		TrainPGD: 3, EvalPGD: 5, EvalAASteps: 5,
		ValSize: 32,
	}
}

// TrimmedScale cuts the quick scale down further for the repository
// benchmarks and for cheap parameter sweeps (Figures 8/9, Tables 3/4); runs
// finish in seconds at the cost of noisier absolute accuracy.
func TrimmedScale() Scale {
	s := QuickScale()
	s.TrainPerClass = 30
	s.TestPerClass = 8
	s.Rounds = 4
	s.RoundsPerModule = 3
	s.LocalIters = 4
	s.TrainPGD = 2
	s.EvalPGD = 3
	s.EvalAASteps = 3
	s.ValSize = 16
	s.Name = "trimmed"
	return s
}

// FullScale is used by the cmd/experiments binary for higher-fidelity runs.
func FullScale() Scale {
	return Scale{
		Name:          "full",
		TrainPerClass: 100, TestPerClass: 20,
		ValFrac: 0.1, PublicFrac: 0.08,
		Width:  4,
		Rounds: 30, RoundsPerModule: 18, LocalIters: 10,
		NumClients: 12, ClientsPerRound: 6,
		TrainPGD: 5, EvalPGD: 10, EvalAASteps: 10,
		ValSize: 48,
	}
}

// ScaleNames lists the scale names Lookup accepts.
func ScaleNames() []string { return []string{"quick", "trimmed", "full"} }

// WorkloadNames lists the workload names Lookup accepts.
func WorkloadNames() []string { return []string{"cifar", "caltech"} }

// Lookup resolves a scale, a workload and a device heterogeneity by the
// names cmd/experiments' flags and the public API's options take; an
// unknown name is an error.
func Lookup(scale, workload, hetero string) (Scale, Workload, device.Heterogeneity, error) {
	var s Scale
	switch scale {
	case "quick":
		s = QuickScale()
	case "trimmed":
		s = TrimmedScale()
	case "full":
		s = FullScale()
	default:
		return Scale{}, Workload{}, 0, fmt.Errorf("unknown scale %q (have %v)", scale, ScaleNames())
	}
	var w Workload
	switch workload {
	case "cifar":
		w = CIFAR10S()
	case "caltech":
		w = Caltech256S(s)
	default:
		return Scale{}, Workload{}, 0, fmt.Errorf("unknown workload %q (have %v)", workload, WorkloadNames())
	}
	for _, h := range []device.Heterogeneity{device.Balanced, device.Unbalanced} {
		if hetero == h.String() {
			return s, w, h, nil
		}
	}
	return Scale{}, Workload{}, 0, fmt.Errorf("unknown heterogeneity %q (balanced or unbalanced)", hetero)
}

// Workload bundles a dataset surrogate with its model family and device pool.
type Workload struct {
	Name       string
	DataCfg    func(scale Scale, seed int64) data.SyntheticConfig
	Shape      []int
	Classes    int
	Pool       []device.Device
	BuildLarge func(scale Scale) func(*rand.Rand) *nn.Model
	BuildSmall func(scale Scale) func(*rand.Rand) *nn.Model
	KDGroup    func(scale Scale) []func(*rand.Rand) *nn.Model
}

// CIFAR10S is the CIFAR-10 surrogate workload: VGG16-S as the large model,
// CNN3 as the small one, the Table 5 device pool.
func CIFAR10S() Workload {
	shape := []int{3, 16, 16}
	classes := 10
	return Workload{
		Name:    "CIFAR10-S",
		Shape:   shape,
		Classes: classes,
		Pool:    device.CIFARPool(),
		DataCfg: func(s Scale, seed int64) data.SyntheticConfig {
			cfg := data.CIFAR10SConfig(s.TrainPerClass, s.TestPerClass, seed)
			return cfg
		},
		BuildLarge: func(s Scale) func(*rand.Rand) *nn.Model {
			return func(r *rand.Rand) *nn.Model { return nn.VGG16S(shape, classes, s.Width, r) }
		},
		BuildSmall: func(s Scale) func(*rand.Rand) *nn.Model {
			return func(r *rand.Rand) *nn.Model { return nn.CNN3(shape, classes, s.Width, r) }
		},
		KDGroup: func(s Scale) []func(*rand.Rand) *nn.Model {
			return []func(*rand.Rand) *nn.Model{
				func(r *rand.Rand) *nn.Model { return nn.CNN3(shape, classes, s.Width, r) },
				func(r *rand.Rand) *nn.Model { return nn.VGG11S(shape, classes, s.Width, r) },
				func(r *rand.Rand) *nn.Model { return nn.VGG13S(shape, classes, s.Width, r) },
				func(r *rand.Rand) *nn.Model { return nn.VGG16S(shape, classes, s.Width, r) },
			}
		},
	}
}

// Caltech256S is the Caltech-256 surrogate workload: ResNet34-S as the large
// model, CNN4 as the small one, the Table 6 device pool. Its shapes follow
// the scale: 3×24×24 images of 32 classes at full scale, 3×16×16 images of 8
// classes at every smaller one. Every artifact, command and the public API
// pick them here.
func Caltech256S(s Scale) Workload {
	shape := []int{3, 16, 16}
	classes := 8
	if s.Name == "full" {
		shape = []int{3, 24, 24}
		classes = 32
	}
	return Workload{
		Name:    "Caltech256-S",
		Shape:   shape,
		Classes: classes,
		Pool:    device.CaltechPool(),
		DataCfg: func(s Scale, seed int64) data.SyntheticConfig {
			cfg := data.Caltech256SConfig(s.TrainPerClass, s.TestPerClass, seed)
			cfg.Shape = shape
			cfg.Classes = classes
			return cfg
		},
		BuildLarge: func(s Scale) func(*rand.Rand) *nn.Model {
			return func(r *rand.Rand) *nn.Model { return nn.ResNet34S(shape, classes, s.Width, r) }
		},
		BuildSmall: func(s Scale) func(*rand.Rand) *nn.Model {
			return func(r *rand.Rand) *nn.Model { return nn.CNN4(shape, classes, s.Width, r) }
		},
		KDGroup: func(s Scale) []func(*rand.Rand) *nn.Model {
			return []func(*rand.Rand) *nn.Model{
				func(r *rand.Rand) *nn.Model { return nn.CNN4(shape, classes, s.Width, r) },
				func(r *rand.Rand) *nn.Model { return nn.ResNet10S(shape, classes, s.Width, r) },
				func(r *rand.Rand) *nn.Model { return nn.ResNet18S(shape, classes, s.Width, r) },
				func(r *rand.Rand) *nn.Model { return nn.ResNet34S(shape, classes, s.Width, r) },
			}
		},
	}
}

// ParamsFor assembles the registry method parameters for a workload at the
// given scale: model builders for every family plus FedProphet's
// coordinator knobs. It is the one place those knobs get their defaults;
// FedProphet reads them as given.
func ParamsFor(w Workload, s Scale) fl.MethodParams {
	return fl.MethodParams{
		BuildLarge: w.BuildLarge(s),
		KDGroup:    w.KDGroup(s),

		RminFrac:        0.2,
		RoundsPerModule: s.RoundsPerModule,
		Patience:        (s.RoundsPerModule + 1) / 2,
		Mu:              1e-5,
		// The paper initializes α at 0.3 and lets APA raise it over hundreds
		// of rounds per module; at this reproduction's much shorter horizons
		// a mid-range start of 0.5 reaches the same operating point.
		AlphaInit: 0.5,
		UseAPA:    true,
		UseDMA:    true,
		ValSize:   s.ValSize,
	}
}

// NewEnv assembles the federated environment for a workload under the given
// systematic heterogeneity and seed. It trains a round's clients on one
// worker per core: a seeded run is bit-identical at any parallelism.
func NewEnv(w Workload, s Scale, h device.Heterogeneity, seed int64) *fl.Env {
	cfg := fl.DefaultConfig()
	cfg.NumClients = s.NumClients
	cfg.ClientsPerRound = s.ClientsPerRound
	cfg.Rounds = s.Rounds
	cfg.LocalIters = s.LocalIters
	cfg.Batch = 8
	cfg.LR = 0.05
	cfg.TrainPGD = s.TrainPGD
	cfg.EvalPGD = s.EvalPGD
	cfg.EvalAASteps = s.EvalAASteps
	cfg.EvalBatch = 32

	train, test := data.Generate(w.DataCfg(s, seed))
	train, val := data.SplitHoldout(train, s.ValFrac, seed+100)
	train, public := data.SplitHoldout(train, s.PublicFrac, seed+200)
	subs := data.PartitionNonIID(train, data.DefaultPartition(cfg.NumClients, seed+300))
	rng := rand.New(rand.NewSource(seed))
	fleet := device.NewFleet(w.Pool, cfg.NumClients, h, rng)
	return &fl.Env{
		Train: train, Subsets: subs, Val: val, Test: test, Public: public,
		Fleet: fleet, Cfg: cfg, Rng: rng, Parallelism: runtime.GOMAXPROCS(0),
	}
}
