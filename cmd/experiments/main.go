// Command experiments regenerates the tables and figures of the FedProphet
// paper (MLSys 2025) on the synthetic substrate of this reproduction.
//
// Usage:
//
//	experiments [flags] <artifact>
//
// where artifact is one of:
//
//	table1 table2 table3 table4 fig2 fig6 fig7 fig8 fig9 fig10
//	partition devices all
//
// Flags select the workload (-workload cifar|caltech), the systematic
// heterogeneity (-hetero balanced|unbalanced), the run scale
// (-scale quick|trimmed|full) and the seed (-seed). An unknown name exits 2.
package main

import (
	"flag"
	"fmt"
	"os"

	"fedprophet/internal/exp"
)

func main() {
	var (
		workload = flag.String("workload", "cifar", "workload: cifar or caltech")
		hetero   = flag.String("hetero", "balanced", "systematic heterogeneity: balanced or unbalanced")
		scale    = flag.String("scale", "quick", "run scale: quick, trimmed or full")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: experiments [flags] <table1|table2|table3|table4|fig2|fig6|fig7|fig8|fig9|fig10|partition|devices|all>")
		os.Exit(2)
	}

	s, w, h, err := exp.Lookup(*scale, *workload, *hetero)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	run := func(artifact string) {
		switch artifact {
		case "table1":
			fmt.Print(exp.Table1(s, *seed))
		case "table2", "fig7", "setting":
			results := exp.RunSetting(w, s, h, *seed)
			switch artifact {
			case "table2":
				fmt.Print(exp.Table2(w, h, results))
			case "fig7":
				fmt.Print(exp.Figure7(w, h, results))
			default:
				fmt.Print(exp.Table2(w, h, results))
				fmt.Print(exp.Figure7(w, h, results))
			}
		case "table3", "table4":
			results := exp.RunAblation(w, s, h, *seed)
			if artifact == "table3" {
				fmt.Print(exp.Table3(w, h, results))
			} else {
				fmt.Print(exp.Table4(w, h, results))
			}
		case "fig2":
			fmt.Print(exp.Figure2(w, s, *seed))
		case "fig6":
			fmt.Print(exp.Figure6(w, s, *seed))
		case "fig8":
			fmt.Print(exp.Figure8(w, s, []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3}, *seed))
		case "fig9":
			fmt.Print(exp.Figure9(w, s, []float64{0.2, 0.4, 0.6, 0.8, 1.0}, *seed))
		case "fig10":
			fmt.Print(exp.Figure10(w, s, *seed))
		case "partition":
			fmt.Print(exp.PartitionTable(w, s, *seed))
		case "devices":
			for _, r := range exp.DeviceTable() {
				fmt.Print(r)
			}
		case "all":
			fmt.Print(exp.Table1(s, *seed))
			fmt.Print(exp.Figure2(w, s, *seed))
			fmt.Print(exp.Figure6(w, s, *seed))
			results := exp.RunSetting(w, s, h, *seed)
			fmt.Print(exp.Table2(w, h, results))
			fmt.Print(exp.Figure7(w, h, results))
			fmt.Print(exp.Figure8(w, s, []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3}, *seed))
			fmt.Print(exp.Figure9(w, s, []float64{0.2, 0.4, 0.6, 0.8, 1.0}, *seed))
			ablation := exp.RunAblation(w, s, h, *seed)
			fmt.Print(exp.Table3(w, h, ablation))
			fmt.Print(exp.Figure10(w, s, *seed))
			fmt.Print(exp.Table4(w, h, ablation))
			fmt.Print(exp.PartitionTable(w, s, *seed))
			for _, r := range exp.DeviceTable() {
				fmt.Print(r)
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown artifact %q\n", artifact)
			os.Exit(2)
		}
	}
	run(flag.Arg(0))
}
