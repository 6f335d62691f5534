// Edgefleet: a systems-level study of FedProphet's server coordinator on a
// heterogeneous edge fleet — no training, pure cost-model analysis.
//
//	go run ./examples/edgefleet
//
// It partitions VGG16-S under the paper's Rmin = 20% constraint, samples the
// Table 5 device pool under balanced and unbalanced heterogeneity, and shows
// for one communication round which modules Differentiated Module Assignment
// gives each client and what the round latency would be with and without
// memory swapping.
package main

import (
	"fmt"
	"math/rand"

	"fedprophet/internal/cascade"
	"fedprophet/internal/core"
	"fedprophet/internal/device"
	"fedprophet/internal/memmodel"
	"fedprophet/internal/nn"
	"fedprophet/internal/quant"
	"fedprophet/internal/simlat"
)

func main() {
	rng := rand.New(rand.NewSource(3))
	model := nn.VGG16S([]int{3, 16, 16}, 10, 4, rng)
	full := memmodel.MemReqModel(model, 8)
	rmin := int64(0.2 * float64(full.TotalBytes))
	casc := cascade.Partition(model, rmin, 8, rng)

	fmt.Printf("model %s: %d params, training memory %.1f KB\n",
		model.Label, nn.NumParams(model), float64(full.TotalBytes)/1024)
	fmt.Printf("partition at Rmin = 20%%: %d modules\n\n", len(casc.Modules))
	for i := range casc.Modules {
		fmt.Printf("  module %d: %2d atoms, mem %6.1f KB, fwd %6.2f MFLOPs\n",
			i+1, len(casc.Modules[i].Backbone.Layers),
			float64(casc.RangeMemReq(i, i))/1024,
			float64(casc.RangeForwardFLOPs(i, i))/1e6)
	}

	for _, h := range []device.Heterogeneity{device.Balanced, device.Unbalanced} {
		fmt.Printf("\n--- one round under %s heterogeneity (module 1 in training) ---\n", h)
		fleet := device.NewFleet(device.CIFARPool(), 10, h, rng)
		cal := simlat.NewMemCalibration(fleet.PoolMaxMemGB(), full.TotalBytes)

		snaps := make([]device.Snapshot, 10)
		perfMin := 1e18
		for c := range snaps {
			snaps[c] = fleet.Snapshot(c, rng)
			if snaps[c].AvailPerf < perfMin {
				perfMin = snaps[c].AvailPerf
			}
		}
		var withDMA, noSwap []simlat.Latency
		var rawWire, wire8, wire4 int64
		for c, snap := range snaps {
			budget := cal.Budget(snap.AvailMemGB)
			to := core.AssignModules(casc, 0, budget, snap.AvailPerf, perfMin, true)

			// Wire traffic this client causes in one round: pull + push of
			// its assigned module range, raw float64 vs the compressed
			// delta codec at 8 and 4 bits (docs/WIRE.md).
			vec := rangeParams(casc, 0, to)
			rawWire += int64(2 * 8 * len(vec))
			wire8 += int64(2 * quant.NewEncoder(8, quant.DefaultChunk, len(vec), 1).Size())
			wire4 += int64(2 * quant.NewEncoder(4, quant.DefaultChunk, len(vec), 1).Size())
			fwd := casc.RangeForwardFLOPs(0, to)
			flops := 8 * memmodel.TrainingFLOPs(fwd, 8, 10)
			lat := simlat.ClientLatency(simlat.Work{
				FLOPs: flops, MemReq: casc.RangeMemReq(0, to), MemBudget: budget,
				Passes: 8 * simlat.PassesPerBatch(10), Swap: false,
			}, snap)
			withDMA = append(withDMA, lat)

			// The jFAT alternative: full model with swapping.
			jl := simlat.ClientLatency(simlat.Work{
				FLOPs:  8 * memmodel.TrainingFLOPs(full.ForwardFLOPs, 8, 10),
				MemReq: full.TotalBytes, MemBudget: budget,
				Passes: 8 * simlat.PassesPerBatch(10), Swap: true,
			}, snap)
			noSwap = append(noSwap, jl)

			fmt.Printf("  client %d on %-16s budget %5.0f KB -> modules 1..%d  (FedProphet %.3fs, jFAT %.3fs)\n",
				c, snap.Device.Name, float64(budget)/1024, to+1, lat.Total(), jl.Total())
		}
		rp := simlat.RoundLatency(withDMA)
		rj := simlat.RoundLatency(noSwap)
		fmt.Printf("  round latency: FedProphet %.3fs vs jFAT %.3fs (%.1fx speedup)\n",
			rp.Total(), rj.Total(), rj.Total()/rp.Total())
		fmt.Printf("  round wire bytes (pull+push, all clients): raw %.1f KB, 8-bit %.1f KB (%.1fx), 4-bit %.1f KB (%.1fx)\n",
			float64(rawWire)/1024,
			float64(wire8)/1024, float64(rawWire)/float64(wire8),
			float64(wire4)/1024, float64(rawWire)/float64(wire4))
	}
}

// rangeParams concatenates the parameter vectors of cascade modules
// from..to inclusive — the payload a client assigned that range would move
// per round.
func rangeParams(casc *cascade.Cascade, from, to int) []float64 {
	var vec []float64
	for m := from; m <= to; m++ {
		vec = append(vec, nn.ExportParams(casc.Modules[m].Backbone)...)
	}
	return vec
}
