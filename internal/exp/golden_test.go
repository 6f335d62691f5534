package exp

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
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

// resultDigest hashes everything else a run reports, bit for bit: the three
// accuracies, the accumulated latency, every History entry and Extra in
// sorted key order — Figure 7's latencies, Figure 10's perturbation series,
// Table 3/4's totals and the upload accounting.
func resultDigest(res *fl.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(xs ...float64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	put(res.CleanAcc, res.PGDAcc, res.AAAcc, res.Latency.Compute, res.Latency.DataAccess)
	for _, m := range res.History {
		put(float64(m.Round), m.Loss, m.Latency.Compute, m.Latency.DataAccess, m.PerDimPert, float64(m.Module))
	}
	keys := make([]string, 0, len(res.Extra))
	for k := range res.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h.Write([]byte(k))
		put(res.Extra[k])
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
// cost or its code layout. The second digest of each run (resultDigest) was
// recorded on the commit before the eight round loops moved onto fl's one
// round driver; it pins the accuracies, latencies, telemetry and Extra of the
// same runs. The Caltech256-S pins (ResNet34-S and its residual blocks,
// CNN4 and the ResNet KD group) were recorded on the commit before
// BasicBlock became two Sequentials and cascade modules one Sequential each.
func TestGoldenModelDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// caltech is Caltech256-S on ResNet34-S at a reduced trimmed scale, so
	// every residual block's forward, backward and BN statistics are pinned
	// for all eight methods in a few seconds.
	caltech := TrimmedScale()
	caltech.Rounds, caltech.RoundsPerModule, caltech.LocalIters = 2, 1, 2
	caltech.TrainPerClass, caltech.TestPerClass = 16, 4
	for _, g := range []struct {
		w            Workload
		s            Scale
		model, whole map[string]uint64
	}{{
		w: CIFAR10S(), s: TrimmedScale(),
		model: map[string]uint64{
			"FedProphet":  0xa779567eaef5e4fa,
			"jFAT":        0x698f389210b68847,
			"FedDF-AT":    0xd7704d5f12f3ec5f,
			"FedET-AT":    0xa50a0ec42e6c6892,
			"HeteroFL-AT": 0x1b5681cb074d2214,
			"FedDrop-AT":  0xe301797f5bcc1c7d,
			"FedRolex-AT": 0xdc26cd9110a1a4e8,
			"FedRBN":      0xfa27cfdef52b86f6,
		},
		whole: map[string]uint64{
			"FedProphet":  0x696f7a4af5c61b6a,
			"jFAT":        0xc7ef20782190dd40,
			"FedDF-AT":    0x1e3e0dace60609ee,
			"FedET-AT":    0x22b7dad025454792,
			"HeteroFL-AT": 0x8fbd33b2bdc0812d,
			"FedDrop-AT":  0x6a35ff471b1c1cb7,
			"FedRolex-AT": 0xf87d9e3657cfbd5c,
			"FedRBN":      0xab368c1ce248be1c,
		},
	}, {
		w: Caltech256S(caltech), s: caltech,
		model: map[string]uint64{
			"FedProphet":  0xfb2882b573fd87cd,
			"jFAT":        0xbce4ba17b90d750b,
			"FedDF-AT":    0x9a4230e2005963ba,
			"FedET-AT":    0xda0e7a522c1e26e3,
			"HeteroFL-AT": 0xfcd19b749dbe2fae,
			"FedDrop-AT":  0x681e70389de32146,
			"FedRolex-AT": 0xb2fd619defe4a90c,
			"FedRBN":      0xaefcd55b684b5218,
		},
		whole: map[string]uint64{
			"FedProphet":  0x2475d53d2d528497,
			"jFAT":        0x91bea4bd9c4afe17,
			"FedDF-AT":    0xe563cf85e6b81b0f,
			"FedET-AT":    0x89cf6e7d9930feea,
			"HeteroFL-AT": 0x81ea53d34407e5f1,
			"FedDrop-AT":  0x089deac0595caa50,
			"FedRolex-AT": 0x0249a6641fb0e9ae,
			"FedRBN":      0xeb3cbbb832669bbf,
		},
	}} {
		for _, name := range fl.MethodNames() {
			if _, ok := g.model[name]; !ok {
				t.Errorf("%s: registered method %s has no golden digest", g.w.Name, name)
			}
		}
		for method, want := range g.model {
			m, err := fl.NewMethod(method, ParamsFor(g.w, g.s))
			if err != nil {
				t.Fatal(err)
			}
			env := NewEnv(g.w, g.s, device.Balanced, 7)
			env.Parallelism = 2
			res, err := m.Run(context.Background(), env)
			if err != nil {
				t.Fatalf("%s %s: %v", g.w.Name, method, err)
			}
			if got := modelDigest(res.Model); got != want {
				t.Errorf("%s %s: model digest %#016x, want %#016x", g.w.Name, method, got, want)
			}
			if got, want := resultDigest(res), g.whole[method]; got != want {
				t.Errorf("%s %s: result digest %#016x, want %#016x", g.w.Name, method, got, want)
			}
		}
	}
}
