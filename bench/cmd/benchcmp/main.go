// Command benchcmp compares two sets of benchmark runs — the parent commit's
// and a change's, each written by `bench --sets N --out file` with the same
// seeds and run length — and prints one row per (workload, metric): each
// side's median and quartiles, the change's median as a ratio of the
// parent's, and a verdict.
//
//	go -C bench run ./cmd/benchcmp parent.json change.json
//
// Runs pair up by index: run i of both files used the same seed, and the
// caller alternated which commit ran first. The verdicts follow the
// choosing-metrics guide (stat.Compare): improved needs at least nine
// tenths of the pairs won and a median gap wider than the parent's own
// interquartile distance; regressed is a median worse by more than the
// metric's bound in BENCHMARK.json; a spread wider than the bound is
// unresolved, never "unchanged". It exits 1 when any row regressed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"fedprophet/bench/internal/stat"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "where metric directions and bounds are read from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchcmp [-spec BENCHMARK.json] parent.json change.json")
		return 2
	}
	var spec stat.Spec
	var parent, change stat.Sets
	for _, in := range []struct {
		path string
		dst  any
	}{{*specPath, &spec}, {fs.Arg(0), &parent}, {fs.Arg(1), &change}} {
		if err := stat.ReadJSON(in.path, in.dst); err != nil {
			fmt.Fprintf(stderr, "benchcmp: %v\n", err)
			return 2
		}
	}
	if parent.Seconds != change.Seconds || fmt.Sprint(parent.Seeds) != fmt.Sprint(change.Seeds) {
		fmt.Fprintf(stderr, "benchcmp: the two sets differ in run length or seeds (%gs %v vs %gs %v): not comparable\n",
			parent.Seconds, parent.Seeds, change.Seconds, change.Seeds)
		return 2
	}
	rows := compare(spec, parent, change)
	fmt.Fprintf(stdout, "%-14s %-18s %36s %36s %8s %7s  %s\n", "workload", "metric",
		"parent median [q1, q3]", "change median [q1, q3]", "ratio", "pairs", "verdict")
	code := 0
	for _, r := range rows {
		c := r.cmp
		fmt.Fprintf(stdout, "%-14s %-18s %12.4f [%10.4f,%10.4f] %12.4f [%10.4f,%10.4f] %7.4fx %3d/%-3d  %s\n",
			r.workload, r.metric, c.ParentMedian, c.ParentQ1, c.ParentQ3,
			c.ChangeMedian, c.ChangeQ1, c.ChangeQ3, c.Ratio, c.Wins, c.Pairs, c.Verdict)
		if c.Verdict == stat.Regressed {
			code = 1
		}
	}
	return code
}

type row struct {
	workload, metric string
	cmp              stat.Comparison
}

// compare builds one row per workload of the parent set and metric of the
// spec, in a stable order.
func compare(spec stat.Spec, parent, change stat.Sets) []row {
	names := make([]string, 0, len(parent.Workloads))
	for w := range parent.Workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	var rows []row
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			rows = append(rows, row{w, m.Name,
				stat.Compare(parent.Workloads[w][m.Name], change.Workloads[w][m.Name], m.Better == "higher", m.Bound)})
		}
	}
	return rows
}
