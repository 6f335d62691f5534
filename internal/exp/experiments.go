package exp

import (
	"context"
	"fmt"
	"math/rand"

	"fedprophet/internal/baselines"
	"fedprophet/internal/cascade"
	"fedprophet/internal/core"
	"fedprophet/internal/device"
	"fedprophet/internal/fl"
	"fedprophet/internal/memmodel"
	"fedprophet/internal/simlat"
)

// Roster is the paper's method order (Table 2 / Figure 7 rows). Every name
// resolves through the fl method registry, where the training packages
// self-register.
var Roster = []string{
	"jFAT", "FedDF-AT", "FedET-AT", "HeteroFL-AT", "FedDrop-AT",
	"FedRolex-AT", "FedRBN", "FedProphet",
}

// runMethod executes a method to completion on a background context; the
// harness never cancels mid-run, so an error here is a programming bug.
func runMethod(m fl.Method, env *fl.Env) *fl.Result {
	res, err := m.Run(context.Background(), env)
	if err != nil {
		panic(fmt.Sprintf("exp: %s: %v", m.Name(), err))
	}
	return res
}

// Report is one regenerated table or figure: a header row plus data rows,
// ready to print.
type Report struct {
	ID     string // e.g. "Table 2"
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the report as aligned plain text.
func (r *Report) String() string {
	out := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	rows := append([][]string{r.Header}, r.Rows...)
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, row := range rows {
		for i, c := range row {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			out += c
			for p := 0; p < pad+2; p++ {
				out += " "
			}
		}
		out += "\n"
	}
	return out
}

func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// Methods returns the full method roster of Table 2 / Figure 7, in the
// paper's row order, resolved through the method registry.
func Methods(w Workload, s Scale) []fl.Method {
	params := ParamsFor(w, s)
	out := make([]fl.Method, 0, len(Roster))
	for _, name := range Roster {
		m, err := fl.NewMethod(name, params)
		if err != nil {
			panic(err)
		}
		out = append(out, m)
	}
	return out
}

// RunSetting trains every method on one (workload, heterogeneity) setting
// and returns the results in roster order. Table 2 and Figure 7 are two
// views of this output.
func RunSetting(w Workload, s Scale, h device.Heterogeneity, seed int64) []*fl.Result {
	var out []*fl.Result
	for _, m := range Methods(w, s) {
		env := NewEnv(w, s, h, seed)
		out = append(out, runMethod(m, env))
	}
	return out
}

// Table1 reproduces Table 1: FAT with small vs large vs partially-trained
// large models on both workloads.
func Table1(s Scale, seed int64) *Report {
	rep := &Report{
		ID:    "Table 1",
		Title: "FAT with different model sizes (Clean / PGD adversarial accuracy)",
		Header: []string{"Model (Mem)", "CIFAR10-S Clean", "CIFAR10-S Adv",
			"Caltech256-S Clean", "Caltech256-S Adv"},
	}
	type cell struct{ clean, adv float64 }
	results := map[string][2]cell{}
	for wi, w := range []Workload{CIFAR10S(), Caltech256S(s)} {
		params := ParamsFor(w, s)
		smallParams := params
		smallParams.BuildLarge = w.BuildSmall(s)
		mk := func(name string, p fl.MethodParams) fl.Method {
			m, err := fl.NewMethod(name, p)
			if err != nil {
				panic(err)
			}
			return m
		}
		small := mk("jFAT", smallParams)
		large := mk("jFAT", params)
		pt := mk("FedRolex-AT", params)
		for i, m := range []fl.Method{small, large, pt} {
			env := NewEnv(w, s, device.Balanced, seed)
			res := runMethod(m, env)
			key := []string{"Small (1x)", "Large (5x)", "Large-PT (1x)"}[i]
			cells := results[key]
			cells[wi] = cell{res.CleanAcc, res.PGDAcc}
			results[key] = cells
		}
	}
	for _, key := range []string{"Small (1x)", "Large (5x)", "Large-PT (1x)"} {
		c := results[key]
		rep.Rows = append(rep.Rows, []string{
			key, pct(c[0].clean), pct(c[0].adv), pct(c[1].clean), pct(c[1].adv),
		})
	}
	return rep
}

// Figure2 reproduces Figure 2: the local-training latency breakdown of a
// memory-constrained client under three regimes — sufficient memory,
// limited memory with swapping, and limited memory with a sub-model
// (FedRolex) instead of swapping. Pure cost-model computation.
func Figure2(w Workload, s Scale, seed int64) *Report {
	rng := rand.New(rand.NewSource(seed))
	model := w.BuildLarge(s)(rng)
	cost := memmodel.MemReqModel(model, 8)
	// Median-bandwidth, median-performance device of the pool.
	dev := w.Pool[1] // TX2 / RX 6800: low-bandwidth representatives
	snap := device.Snapshot{Device: dev, AvailMemGB: dev.PeakMemGB, AvailPerf: dev.PeakTFLOPS * 0.5}

	iters := 30
	batch := 8
	pgd := 10
	flops := int64(iters) * memmodel.TrainingFLOPs(cost.ForwardFLOPs, batch, pgd)
	passes := int64(iters) * simlat.PassesPerBatch(pgd)

	sub := baselines.ExtractSubModel(model, 0.2, baselines.FedRolex, 0, rng)
	subCost := memmodel.MemReqModel(sub, 8)
	subFlops := int64(iters) * memmodel.TrainingFLOPs(subCost.ForwardFLOPs, batch, pgd)

	cases := []struct {
		name string
		work simlat.Work
	}{
		{"Suff. Mem", simlat.Work{FLOPs: flops, MemReq: cost.TotalBytes, MemBudget: cost.TotalBytes, Passes: passes, Swap: true}},
		{"Lim. w/ Swap", simlat.Work{FLOPs: flops, MemReq: cost.TotalBytes, MemBudget: cost.TotalBytes / 5, Passes: passes, Swap: true}},
		{"Lim. w/o Swap", simlat.Work{FLOPs: subFlops, MemReq: subCost.TotalBytes, MemBudget: cost.TotalBytes / 5, Passes: passes, Swap: false}},
	}
	rep := &Report{
		ID:     "Figure 2",
		Title:  fmt.Sprintf("Local training overhead breakdown, %s on %s", model.Label, w.Name),
		Header: []string{"Regime", "Compute (s)", "Data Access (s)", "Total (s)", "Data Access %"},
	}
	base := 0.0
	for _, c := range cases {
		lat := simlat.ClientLatency(c.work, snap)
		if base == 0 {
			base = lat.Total()
		}
		frac := 0.0
		if lat.Total() > 0 {
			frac = lat.DataAccess / lat.Total()
		}
		rep.Rows = append(rep.Rows, []string{
			c.name,
			fmt.Sprintf("%.3f", lat.Compute),
			fmt.Sprintf("%.3f", lat.DataAccess),
			fmt.Sprintf("%.3f", lat.Total()),
			pct(frac),
		})
	}
	return rep
}

// Figure6 reproduces Figure 6: the balanced/unbalanced availability
// distributions of the device fleets, and the peak training memory of jFAT
// vs FedProphet.
func Figure6(w Workload, s Scale, seed int64) *Report {
	rng := rand.New(rand.NewSource(seed))
	rep := &Report{
		ID:     "Figure 6",
		Title:  fmt.Sprintf("Device availability and memory consumption, %s", w.Name),
		Header: []string{"Quantity", "Value"},
	}
	for _, h := range []device.Heterogeneity{device.Balanced, device.Unbalanced} {
		fleet := device.NewFleet(w.Pool, 100, h, rng)
		var memSum, perfSum, memMin, perfMin float64
		memMin, perfMin = 1e18, 1e18
		for c := 0; c < 100; c++ {
			snap := fleet.Snapshot(c, rng)
			memSum += snap.AvailMemGB
			perfSum += snap.AvailPerf
			if snap.AvailMemGB < memMin {
				memMin = snap.AvailMemGB
			}
			if snap.AvailPerf < perfMin {
				perfMin = snap.AvailPerf
			}
		}
		rep.Rows = append(rep.Rows,
			[]string{fmt.Sprintf("%s mean avail mem (GB)", h), fmt.Sprintf("%.2f", memSum/100)},
			[]string{fmt.Sprintf("%s min avail mem (GB)", h), fmt.Sprintf("%.2f", memMin)},
			[]string{fmt.Sprintf("%s mean avail perf (TFLOPS)", h), fmt.Sprintf("%.2f", perfSum/100)},
			[]string{fmt.Sprintf("%s min avail perf (TFLOPS)", h), fmt.Sprintf("%.2f", perfMin)},
		)
	}

	model := w.BuildLarge(s)(rng)
	full := memmodel.MemReqModel(model, 8)
	casc := cascade.Partition(model, int64(0.2*float64(full.TotalBytes)), 8, rng)
	maxMod := casc.MaxModuleMemReq()
	rep.Rows = append(rep.Rows,
		[]string{"jFAT training memory (KB)", fmt.Sprintf("%.1f", float64(full.TotalBytes)/1024)},
		[]string{"FedProphet training memory (KB)", fmt.Sprintf("%.1f", float64(maxMod)/1024)},
		[]string{"memory reduction", pct(1 - float64(maxMod)/float64(full.TotalBytes))},
	)
	return rep
}

// Table2 formats the accuracy comparison across all methods for one setting.
func Table2(w Workload, h device.Heterogeneity, results []*fl.Result) *Report {
	rep := &Report{
		ID:     "Table 2",
		Title:  fmt.Sprintf("Accuracy under %s, %s", w.Name, h),
		Header: []string{"Method", "Clean Acc.", "PGD Acc.", "AA Acc."},
	}
	for _, r := range results {
		rep.Rows = append(rep.Rows, []string{r.Method, pct(r.CleanAcc), pct(r.PGDAcc), pct(r.AAAcc)})
	}
	return rep
}

// Figure7 formats the training-time comparison of the same runs.
func Figure7(w Workload, h device.Heterogeneity, results []*fl.Result) *Report {
	rep := &Report{
		ID:     "Figure 7",
		Title:  fmt.Sprintf("Training time under %s, %s", w.Name, h),
		Header: []string{"Method", "Compute (s)", "Data Access (s)", "Total (s)", "Speedup vs jFAT"},
	}
	var jfat float64
	for _, r := range results {
		if r.Method == "jFAT" {
			jfat = r.Latency.Total()
		}
	}
	for _, r := range results {
		speed := "-"
		if r.Latency.Total() > 0 && jfat > 0 {
			speed = fmt.Sprintf("%.1fx", jfat/r.Latency.Total())
		}
		rep.Rows = append(rep.Rows, []string{
			r.Method,
			fmt.Sprintf("%.3f", r.Latency.Compute),
			fmt.Sprintf("%.3f", r.Latency.DataAccess),
			fmt.Sprintf("%.3f", r.Latency.Total()),
			speed,
		})
	}
	return rep
}

// Figure8 reproduces Figure 8: the µ sweep's effect on adversarial accuracy
// and on the measured perturbation magnitude d*₁ = E[max‖Δz₁‖].
func Figure8(w Workload, s Scale, mus []float64, seed int64) *Report {
	rep := &Report{
		ID:     "Figure 8",
		Title:  fmt.Sprintf("Strong-convexity µ sweep, %s", w.Name),
		Header: []string{"mu", "Adv Acc.", "Clean Acc.", "pert L2 d*_1"},
	}
	for _, mu := range mus {
		p := ParamsFor(w, s)
		p.Mu = mu
		res := runMethod(core.New(p), NewEnv(w, s, device.Balanced, seed))
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%.0e", mu), pct(res.PGDAcc), pct(res.CleanAcc),
			fmt.Sprintf("%.3f", res.Extra["pert_z1"]),
		})
	}
	return rep
}

// Figure9 reproduces Figure 9: module count and accuracy vs Rmin/Rmax.
func Figure9(w Workload, s Scale, fracs []float64, seed int64) *Report {
	rep := &Report{
		ID:     "Figure 9",
		Title:  fmt.Sprintf("Rmin sweep, %s", w.Name),
		Header: []string{"Rmin/Rmax", "Modules", "Clean Acc.", "Adv Acc."},
	}
	for _, f := range fracs {
		p := ParamsFor(w, s)
		p.RminFrac = f
		res := runMethod(core.New(p), NewEnv(w, s, device.Balanced, seed))
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%.1f", f),
			fmt.Sprintf("%.0f", res.Extra["modules"]),
			pct(res.CleanAcc), pct(res.PGDAcc),
		})
	}
	return rep
}

// ablation is the APA × DMA grid of RunAblation, in Table 3's row order.
var ablation = [...]struct{ apa, dma bool }{{true, true}, {false, true}, {true, false}, {false, false}}

// RunAblation trains FedProphet once per APA × DMA setting and returns the
// results in Table 3's row order. Table 3 and Table 4 are two views of this
// output.
func RunAblation(w Workload, s Scale, h device.Heterogeneity, seed int64) []*fl.Result {
	var out []*fl.Result
	for _, a := range ablation {
		p := ParamsFor(w, s)
		p.UseAPA, p.UseDMA = a.apa, a.dma
		out = append(out, runMethod(core.New(p), NewEnv(w, s, h, seed)))
	}
	return out
}

// Table3 formats the APA × DMA ablation of RunAblation's results.
func Table3(w Workload, h device.Heterogeneity, results []*fl.Result) *Report {
	rep := &Report{
		ID:     "Table 3",
		Title:  fmt.Sprintf("APA/DMA ablation, %s, %s", w.Name, h),
		Header: []string{"APA", "DMA", "Clean Acc.", "Adv Acc.", "Total time (s)"},
	}
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for i, res := range results {
		rep.Rows = append(rep.Rows, []string{
			mark(ablation[i].apa), mark(ablation[i].dma), pct(res.CleanAcc), pct(res.PGDAcc),
			fmt.Sprintf("%.3f", res.Latency.Total()),
		})
	}
	return rep
}

// Figure10 reproduces Figure 10: the per-dimension perturbation trajectory
// across rounds under APA.
func Figure10(w Workload, s Scale, seed int64) *Report {
	res := runMethod(core.New(ParamsFor(w, s)), NewEnv(w, s, device.Balanced, seed))
	rep := &Report{
		ID:     "Figure 10",
		Title:  fmt.Sprintf("Perturbation per dimension across rounds, %s", w.Name),
		Header: []string{"Round", "Module", "Pert. per Dim."},
	}
	for _, hh := range res.History {
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", hh.Round),
			fmt.Sprintf("%d", hh.Module+1),
			fmt.Sprintf("%.5f", hh.PerDimPert),
		})
	}
	return rep
}

// Table4 formats FedProphet's training time with and without DMA: the two
// APA-on runs of RunAblation's results.
func Table4(w Workload, h device.Heterogeneity, results []*fl.Result) *Report {
	return &Report{
		ID:     "Table 4",
		Title:  fmt.Sprintf("Training time with/without DMA, %s, %s", w.Name, h),
		Header: []string{"Setting", "Total time (s)"},
		Rows: [][]string{
			{"w/ DMA", fmt.Sprintf("%.3f", results[0].Latency.Total())},
			{"w/o DMA", fmt.Sprintf("%.3f", results[2].Latency.Total())},
		},
	}
}

// PartitionTable reproduces Tables 7/8: the model partition at Rmin = 20%
// with per-module memory requirement and forward FLOPs.
func PartitionTable(w Workload, s Scale, seed int64) *Report {
	rng := rand.New(rand.NewSource(seed))
	model := w.BuildLarge(s)(rng)
	full := memmodel.MemReqModel(model, 8)
	casc := cascade.Partition(model, int64(0.2*float64(full.TotalBytes)), 8, rng)
	rep := &Report{
		ID:     "Tables 7/8",
		Title:  fmt.Sprintf("Model partition of %s at Rmin = 20%% (%d modules)", model.Label, len(casc.Modules)),
		Header: []string{"Module", "Atoms", "Mem Req (KB)", "Fwd MFLOPs"},
	}
	for i, m := range casc.Modules {
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%d", len(m.Backbone.Layers)),
			fmt.Sprintf("%.1f", float64(casc.RangeMemReq(i, i))/1024),
			fmt.Sprintf("%.2f", float64(casc.RangeForwardFLOPs(i, i))/1e6),
		})
	}
	return rep
}

// DeviceTable prints the verbatim device pools (Tables 5/6).
func DeviceTable() []*Report {
	var reps []*Report
	for _, p := range []struct {
		id   string
		pool []device.Device
	}{
		{"Table 5 (CIFAR-10 pool)", device.CIFARPool()},
		{"Table 6 (Caltech-256 pool)", device.CaltechPool()},
	} {
		rep := &Report{
			ID:     p.id,
			Title:  "Device pool",
			Header: []string{"Device", "Performance (TFLOPS)", "Memory (GB)", "I/O Bandwidth (GB/s)"},
		}
		for _, d := range p.pool {
			rep.Rows = append(rep.Rows, []string{
				d.Name,
				fmt.Sprintf("%.1f", d.PeakTFLOPS),
				fmt.Sprintf("%.0f", d.PeakMemGB),
				fmt.Sprintf("%.1f", d.IOBandwidth),
			})
		}
		reps = append(reps, rep)
	}
	return reps
}
