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

// The golden pin: the trained models of a seeded trimmed-scale FedProphet run
// (APA and DMA on) and of a jFAT run, recorded on the commit before the
// eval-mode backward stopped computing parameter gradients and before the
// cascade client loop started reading per-stage frozen-prefix feature sets.
// Both are pure wall-clock changes, so the digests must never move; a change
// that moves them has altered the arithmetic of training, not just its cost.
func TestGoldenModelDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	golden := map[string]uint64{
		"FedProphet": 0xa779567eaef5e4fa,
		"jFAT":       0x698f389210b68847,
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
