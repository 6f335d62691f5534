package fedprophet_test

import (
	"context"
	"fmt"
	"testing"

	"fedprophet/pkg/fedprophet"
)

// BenchmarkClientParallelism measures the per-run wall clock of the same
// seeded quick-scale CIFAR workload at increasing client parallelism, for
// jFAT (4 rounds of whole-model client steps) and FedProphet (2 rounds per
// module of cascade client steps, plus the server-side validation, stage
// feature maps and perturbation collection, whose eval batches split across
// the worker slots' model replicas). A method's results are bit-identical
// across its sub-benchmarks; only the wall clock may differ. On a
// single-core host (GOMAXPROCS=1) the lines coincide — the speedup needs
// real cores.
//
//	go test -bench=ClientParallelism -benchtime=1x ./pkg/fedprophet
func BenchmarkClientParallelism(b *testing.B) {
	for _, method := range []string{"jFAT", "FedProphet"} {
		for _, par := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/par%d", method, par), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := fedprophet.Run(context.Background(),
						fedprophet.WithMethod(method),
						fedprophet.WithWorkload("cifar"),
						fedprophet.WithScale("quick"),
						fedprophet.WithSeed(1),
						fedprophet.WithRounds(4),
						fedprophet.WithRoundsPerModule(2),
						fedprophet.WithClientParallelism(par),
					)
					if err != nil {
						b.Fatal(err)
					}
					if res.CleanAcc < 0 {
						b.Fatal("bogus result")
					}
				}
			})
		}
	}
}
