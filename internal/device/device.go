// Package device models the edge-device fleets of the FedProphet evaluation:
// the two device pools of Appendix B.1 (Tables 5 and 6), the runtime
// degradation of available memory and performance caused by co-running
// applications, and the balanced/unbalanced systematic-heterogeneity
// samplings of §7.1.
//
// The package is deterministic: fleet assignment and per-round availability
// are drawn only from the caller's RNG, so a seeded run's device snapshots —
// and the module assignments DMA derives from them — reproduce exactly.
//
//lint:deterministic
package device

import (
	"math/rand"
)

// GB is one gibibyte in bytes.
const GB = 1 << 30

// TFLOPS is 1e12 floating-point operations per second.
const TFLOPS = 1e12

// Device is an edge accelerator with peak capabilities.
type Device struct {
	Name        string
	PeakTFLOPS  float64
	PeakMemGB   float64
	IOBandwidth float64 // GB/s between memory and external storage
}

// CIFARPool is the device pool for CIFAR-10 training (paper Table 5).
func CIFARPool() []Device {
	return []Device{
		{"GTX 1650m", 3.1, 4, 16},
		{"TX2", 1.3, 4, 1.5},
		{"KCU1500", 0.2, 2, 2},
		{"VC709", 0.1, 2, 1.5},
		{"Radeon HD 6870", 2.7, 1, 16},
		{"Quadro M2200", 2.1, 4, 1.5},
		{"A12 GPU", 0.5, 4, 1.5},
		{"Geforce 750", 1.1, 1, 16},
		{"Grid K240q", 2.3, 1, 16},
		{"Radeon RX 6300m", 3.7, 2, 16},
	}
}

// CaltechPool is the device pool for Caltech-256 training (paper Table 6).
func CaltechPool() []Device {
	return []Device{
		{"Radeon RX 7600", 21.8, 8, 16},
		{"Radeon RX 6800", 16.2, 16, 16},
		{"Arc A770", 19.7, 16, 16},
		{"Quadro P5000", 5.3, 16, 1.5},
		{"RTX 3080m", 19.0, 8, 16},
		{"RTX 4090m", 33.0, 16, 16},
		{"A17 GPU", 2.1, 8, 1.5},
		{"GTX 1650m", 3.1, 4, 16},
		{"TX2", 1.3, 4, 1.5},
		{"P104 101", 8.6, 4, 16},
	}
}

// Heterogeneity selects the device-sampling regime.
type Heterogeneity int

// Sampling regimes of §7.1.
const (
	// Balanced samples devices uniformly.
	Balanced Heterogeneity = iota
	// Unbalanced over-weights devices with small memory and low performance.
	Unbalanced
)

// String implements fmt.Stringer.
func (h Heterogeneity) String() string {
	if h == Unbalanced {
		return "unbalanced"
	}
	return "balanced"
}

// Snapshot is the real-time availability of a client's device in one round:
// peak capabilities degraded by co-running applications (Appendix B.1: the
// memory degradation factor is U[0,0.2] of peak, the performance factor
// U[0,1.0] of peak).
type Snapshot struct {
	Device     Device
	AvailMemGB float64
	AvailPerf  float64 // TFLOPS
}

// Fleet assigns one device per client and produces per-round availability
// snapshots.
type Fleet struct {
	Devices []Device // per client
	pool    []Device
}

// NewFleet samples a device for each of n clients from the pool under the
// given heterogeneity regime.
func NewFleet(pool []Device, n int, h Heterogeneity, rng *rand.Rand) *Fleet {
	weights := make([]float64, len(pool))
	switch h {
	case Balanced:
		for i := range weights {
			weights[i] = 1
		}
	case Unbalanced:
		// Weight inversely proportional to a capability score so weak
		// devices dominate the fleet.
		for i, d := range pool {
			score := d.PeakMemGB * (0.5 + d.PeakTFLOPS)
			weights[i] = 1 / score
		}
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	devs := make([]Device, n)
	for c := 0; c < n; c++ {
		r := rng.Float64() * total
		acc := 0.0
		pick := len(pool) - 1
		for i, w := range weights {
			acc += w
			if r <= acc {
				pick = i
				break
			}
		}
		devs[c] = pool[pick]
	}
	return &Fleet{Devices: devs, pool: pool}
}

// Snapshot returns the real-time availability of client c for one round.
func (f *Fleet) Snapshot(c int, rng *rand.Rand) Snapshot {
	d := f.Devices[c]
	memFactor := rng.Float64() * 0.2  // fraction of memory consumed by co-running apps
	perfFactor := rng.Float64() * 1.0 // fraction of performance consumed
	return Snapshot{
		Device:     d,
		AvailMemGB: d.PeakMemGB * (1 - memFactor),
		AvailPerf:  d.PeakTFLOPS * (1 - perfFactor*0.9), // keep ≥10% so progress is possible
	}
}

// PoolMaxMemGB returns the largest peak memory in the fleet's pool; the
// experiment harness uses it to calibrate device memory against model
// memory requirements (see simlat.MemCalibration).
func (f *Fleet) PoolMaxMemGB() float64 {
	m := 0.0
	for _, d := range f.pool {
		if d.PeakMemGB > m {
			m = d.PeakMemGB
		}
	}
	return m
}
