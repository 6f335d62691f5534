package device

import (
	"math/rand"
	"testing"
)

func TestPoolsMatchPaperTables(t *testing.T) {
	c := CIFARPool()
	if len(c) != 10 {
		t.Fatalf("CIFAR pool has %d devices, want 10", len(c))
	}
	// Spot-check entries against Table 5.
	if c[0].Name != "GTX 1650m" || c[0].PeakTFLOPS != 3.1 || c[0].PeakMemGB != 4 || c[0].IOBandwidth != 16 {
		t.Fatalf("GTX 1650m row wrong: %+v", c[0])
	}
	if c[3].Name != "VC709" || c[3].PeakTFLOPS != 0.1 {
		t.Fatalf("VC709 row wrong: %+v", c[3])
	}

	cal := CaltechPool()
	if len(cal) != 10 {
		t.Fatalf("Caltech pool has %d devices, want 10", len(cal))
	}
	if cal[5].Name != "RTX 4090m" || cal[5].PeakTFLOPS != 33.0 || cal[5].PeakMemGB != 16 {
		t.Fatalf("RTX 4090m row wrong: %+v", cal[5])
	}
}

func TestFleetAssignsEveryClient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := NewFleet(CIFARPool(), 50, Balanced, rng)
	if len(f.Devices) != 50 {
		t.Fatalf("fleet size %d", len(f.Devices))
	}
	for _, d := range f.Devices {
		if d.Name == "" {
			t.Fatal("unassigned device")
		}
	}
}

func TestUnbalancedSkewsTowardWeakDevices(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 3000
	bal := NewFleet(CIFARPool(), n, Balanced, rng)
	unb := NewFleet(CIFARPool(), n, Unbalanced, rng)
	mean := func(f *Fleet) float64 {
		s := 0.0
		for _, d := range f.Devices {
			s += d.PeakTFLOPS * d.PeakMemGB
		}
		return s / float64(n)
	}
	if mean(unb) >= mean(bal) {
		t.Fatalf("unbalanced fleet should be weaker: bal %v unb %v", mean(bal), mean(unb))
	}
}

func TestSnapshotWithinDegradationBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := NewFleet(CIFARPool(), 10, Balanced, rng)
	for c := 0; c < 10; c++ {
		for trial := 0; trial < 20; trial++ {
			s := f.Snapshot(c, rng)
			d := f.Devices[c]
			if s.AvailMemGB > d.PeakMemGB || s.AvailMemGB < 0.8*d.PeakMemGB-1e-9 {
				t.Fatalf("memory availability %v out of [0.8,1.0]×%v", s.AvailMemGB, d.PeakMemGB)
			}
			if s.AvailPerf > d.PeakTFLOPS || s.AvailPerf < 0.1*d.PeakTFLOPS-1e-9 {
				t.Fatalf("performance availability %v out of [0.1,1.0]×%v", s.AvailPerf, d.PeakTFLOPS)
			}
		}
	}
}

func TestPoolMaxAndMin(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := NewFleet(CaltechPool(), 5, Balanced, rng)
	if f.PoolMaxMemGB() != 16 {
		t.Fatalf("PoolMaxMemGB = %v", f.PoolMaxMemGB())
	}
	for _, d := range f.Devices {
		if d.PeakMemGB <= 0 || d.PeakMemGB > f.PoolMaxMemGB() {
			t.Fatalf("device peak memory %v outside (0, %v]", d.PeakMemGB, f.PoolMaxMemGB())
		}
	}
}

func TestHeterogeneityString(t *testing.T) {
	if Balanced.String() != "balanced" || Unbalanced.String() != "unbalanced" {
		t.Fatal("bad Stringer")
	}
}
