// Command fedprophet runs a single federated adversarial training experiment
// with a chosen method and prints the paper's evaluation metrics. It is a
// thin shell over the public pkg/fedprophet API: methods resolve through the
// registry, per-round telemetry streams as it happens, Ctrl-C aborts
// gracefully at the next round boundary (printing the partial result), and
// -parallel trains a round's clients concurrently without changing the
// seeded result.
//
// Usage:
//
//	fedprophet -method FedProphet -workload cifar -hetero balanced -scale quick -parallel 4
//
// Run with -list to print the registered methods.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"fedprophet/pkg/fedprophet"
)

func main() {
	var (
		method   = flag.String("method", "FedProphet", "training method (see -list)")
		workload = flag.String("workload", "cifar", "workload: cifar or caltech")
		hetero   = flag.String("hetero", "balanced", "balanced or unbalanced")
		scale    = flag.String("scale", "quick", "quick, trimmed or full")
		seed     = flag.Int64("seed", 1, "random seed")
		parallel = flag.Int("parallel", 0, "concurrent client trainers per round (0 = one per core)")
		rounds   = flag.Int("rounds", 0, "override baseline communication rounds (0 = scale default; FedProphet uses -rounds-per-module)")
		rpm      = flag.Int("rounds-per-module", 0, "override FedProphet rounds per module stage (0 = scale default)")
		verbose  = flag.Bool("v", false, "stream per-round telemetry")
		list     = flag.Bool("list", false, "list registered methods and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(fedprophet.Methods(), "\n"))
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := []fedprophet.Option{
		fedprophet.WithMethod(*method),
		fedprophet.WithWorkload(*workload),
		fedprophet.WithHeterogeneity(*hetero),
		fedprophet.WithScale(*scale),
		fedprophet.WithSeed(*seed),
		fedprophet.WithClientParallelism(*parallel),
	}
	if *rounds > 0 {
		opts = append(opts, fedprophet.WithRounds(*rounds))
	}
	if *rpm > 0 {
		opts = append(opts, fedprophet.WithRoundsPerModule(*rpm))
	}
	if *verbose {
		opts = append(opts, fedprophet.WithRoundHook(func(m fedprophet.RoundMetrics) {
			fmt.Printf("round %3d  module %d  loss %.4f  latency %.3fs (compute %.3fs, access %.3fs)\n",
				m.Round, m.Module+1, m.Loss, m.Latency.Total(), m.Latency.Compute, m.Latency.DataAccess)
		}))
	}

	fmt.Printf("method=%s workload=%s hetero=%s scale=%s parallel=%d seed=%d\n",
		*method, *workload, *hetero, *scale, *parallel, *seed)
	res, err := fedprophet.Run(ctx, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "run aborted: %v\n", err)
		if res != nil && len(res.History) > 0 {
			fmt.Fprintf(os.Stderr, "partial progress: %d rounds, simulated %.3fs\n",
				len(res.History), res.Latency.Total())
		}
		os.Exit(1)
	}

	fmt.Printf("Clean Acc: %.2f%%\n", res.CleanAcc*100)
	fmt.Printf("PGD Acc:   %.2f%%\n", res.PGDAcc*100)
	fmt.Printf("AA Acc:    %.2f%%\n", res.AAAcc*100)
	fmt.Printf("Training time: %.3fs (compute %.3fs, data access %.3fs)\n",
		res.Latency.Total(), res.Latency.Compute, res.Latency.DataAccess)
	// Sorted keys: the CLI's determinism contract is byte-identical stdout
	// for identical seeded runs, and map range order would break it.
	keys := make([]string, 0, len(res.Extra))
	for k := range res.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s: %.4g\n", k, res.Extra[k])
	}
}
