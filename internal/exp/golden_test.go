package exp

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"fedprophet/internal/device"
	"fedprophet/internal/fl"
	"fedprophet/internal/nn"
)

// modelDigest hashes every parameter and batch-norm statistic bit for bit.
func modelDigest(l nn.Layer) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, vec := range [][]float64{nn.ExportParams(l), nn.ExportBNStats(l)} {
		for _, x := range vec {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// The golden pin: the trained model of every registered method on one seeded
// trimmed-scale run. FedProphet (APA and DMA on) and jFAT were recorded on the
// commit before the eval-mode backward stopped computing parameter gradients
// and before the cascade client loop started reading per-stage frozen-prefix
// feature sets; the six other baselines on the commit before their round
// loops moved onto fl's shared local step and round schedule. All of those
// are pure refactors or wall-clock changes, so the digests must never move; a
// change that moves them has altered the arithmetic of training, not just its
// cost or its code layout.
func TestGoldenModelDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	golden := map[string]uint64{
		"FedProphet":  0xa779567eaef5e4fa,
		"jFAT":        0x698f389210b68847,
		"FedDF-AT":    0xd7704d5f12f3ec5f,
		"FedET-AT":    0xa50a0ec42e6c6892,
		"HeteroFL-AT": 0x1b5681cb074d2214,
		"FedDrop-AT":  0xe301797f5bcc1c7d,
		"FedRolex-AT": 0xdc26cd9110a1a4e8,
		"FedRBN":      0xfa27cfdef52b86f6,
	}
	for _, name := range fl.MethodNames() {
		if _, ok := golden[name]; !ok {
			t.Errorf("registered method %s has no golden digest", name)
		}
	}
	w, s := CIFAR10S(), TrimmedScale()
	for method, want := range golden {
		m, err := fl.NewMethod(method, ParamsFor(w, s))
		if err != nil {
			t.Fatal(err)
		}
		env := NewEnv(w, s, device.Balanced, 7)
		env.Parallelism = 2
		res, err := m.Run(context.Background(), env)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if got := modelDigest(res.Model); got != want {
			t.Errorf("%s: model digest %#016x, want %#016x", method, got, want)
		}
	}
}
