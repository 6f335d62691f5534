// Package fedprophet's repository-level benchmarks regenerate every table
// and figure of the FedProphet paper (MLSys 2025) at the quick scale and
// print the same rows the paper reports. Run them with
//
//	go test -bench=. -benchmem -benchtime=1x
//
// Each benchmark corresponds to one paper artifact; docs/ARCHITECTURE.md
// maps the packages they exercise. Absolute values come from the synthetic
// substrate; the shapes — method orderings, latency breakdowns, memory
// reductions — are the reproduction targets. System performance is measured
// by the benchmark under bench/ (declared in BENCHMARK.json), not here.
package fedprophet_test

import (
	"context"
	"testing"

	"fedprophet/internal/core"
	"fedprophet/internal/device"
	"fedprophet/internal/exp"
)

// benchScale is the trimmed sweep scale shared with cmd/experiments.
func benchScale() exp.Scale { return exp.TrimmedScale() }

func BenchmarkTable1ModelSizes(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rep := exp.Table1(s, 1)
		b.Log("\n" + rep.String())
	}
}

func BenchmarkFigure2OverheadBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range []exp.Workload{exp.CIFAR10S(), exp.Caltech256S(true)} {
			rep := exp.Figure2(w, exp.QuickScale(), 1)
			b.Log("\n" + rep.String())
		}
	}
}

func BenchmarkFigure6DevicesAndMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := exp.Figure6(exp.CIFAR10S(), exp.QuickScale(), 1)
		b.Log("\n" + rep.String())
	}
}

func BenchmarkTable2AndFigure7AllMethods(b *testing.B) {
	s := benchScale()
	w := exp.CIFAR10S()
	for i := 0; i < b.N; i++ {
		results := exp.RunSetting(w, s, device.Balanced, 1)
		b.Log("\n" + exp.Table2(w, device.Balanced, results).String())
		b.Log("\n" + exp.Figure7(w, device.Balanced, results).String())
	}
}

func BenchmarkFigure8MuSweep(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rep := exp.Figure8(exp.CIFAR10S(), s, []float64{1e-6, 1e-4, 1e-2}, 1)
		b.Log("\n" + rep.String())
	}
}

func BenchmarkFigure9RminSweep(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rep := exp.Figure9(exp.CIFAR10S(), s, []float64{0.2, 0.5, 1.0}, 1)
		b.Log("\n" + rep.String())
	}
}

func BenchmarkTable3APADMAAblation(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rep := exp.Table3(exp.CIFAR10S(), s, device.Balanced, 1)
		b.Log("\n" + rep.String())
	}
}

func BenchmarkFigure10PerturbationTrajectory(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rep := exp.Figure10(exp.CIFAR10S(), s, 1)
		b.Log("\n" + rep.String())
	}
}

func BenchmarkTable4DMALatency(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rep := exp.Table4(exp.CIFAR10S(), s, device.Balanced, 1)
		b.Log("\n" + rep.String())
	}
}

func BenchmarkPartitionTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range []exp.Workload{exp.CIFAR10S(), exp.Caltech256S(true)} {
			rep := exp.PartitionTable(w, exp.QuickScale(), 1)
			b.Log("\n" + rep.String())
		}
	}
}

func BenchmarkDeviceTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, rep := range exp.DeviceTable() {
			b.Log("\n" + rep.String())
		}
	}
}

// BenchmarkAblationQuantizedUploads measures the §8 extension: FedProphet
// with 8-bit and 4-bit quantized module uploads vs full-precision, reporting
// accuracy and upload traffic.
func BenchmarkAblationQuantizedUploads(b *testing.B) {
	s := benchScale()
	w := exp.CIFAR10S()
	for i := 0; i < b.N; i++ {
		for _, bits := range []int{0, 8, 4} {
			opts := exp.FedProphetOptions(w, s)
			opts.UploadBits = bits
			env := exp.NewEnv(w, s, device.Balanced, 1)
			res, err := core.New(opts).Run(context.Background(), env)
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("uploadBits=%d clean=%.1f%% pgd=%.1f%% comm=%.1f KB",
				bits, res.CleanAcc*100, res.PGDAcc*100, res.Extra["comm_up_bytes"]/1024)
		}
	}
}
