// Paramserver: the distributed deployment path — a sharded HTTP parameter
// server built through the public pkg/fedprophet API, federating a small
// concurrent fleet over real HTTP on localhost.
//
//	go run ./examples/paramserver
//
// Six clients (half on the raw gob protocol, half pushing 8-bit error-fed
// compressed deltas) train a CNN3 on non-IID shards of the synthetic
// CIFAR10-S workload for five synchronous rounds. The server aggregates
// under parameter-range sharding: every push decodes and admits in parallel,
// a /stats poll never blocks a round, and the global model is bit-identical
// to single-shard (and pre-shard) aggregation. The final report reads the
// same /stats the benchmark (bench/) and operators use.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"time"

	"fedprophet/internal/data"
	"fedprophet/internal/fl"
	"fedprophet/internal/fldist"
	"fedprophet/internal/nn"
	"fedprophet/pkg/fedprophet"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	const (
		clients = 6
		rounds  = 5
		seed    = 11
	)
	build := func() *nn.Model {
		return nn.CNN3([]int{3, 16, 16}, 10, 4, rand.New(rand.NewSource(seed)))
	}
	m := build()

	srv := fedprophet.NewParamServer(nn.ExportParams(m), nn.ExportBNStats(m), clients,
		fedprophet.WithServerShards(4))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	serveCtx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(serveCtx, ln) }()
	url := "http://" + ln.Addr().String()
	fmt.Printf("parameter server on %s: quorum %d, %d shards, model %s\n",
		url, clients, srv.Shards(), m.Label)

	train, _ := data.Generate(data.CIFAR10SConfig(40, 10, seed))
	subs := data.PartitionNonIID(train, data.DefaultPartition(clients, seed))
	cfg := fl.DefaultConfig()
	cfg.LocalIters = 6
	cfg.Batch = 16

	var wg sync.WaitGroup
	start := time.Now()
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := &fldist.Client{
				ID:      id,
				BaseURL: url,
				HTTP:    &http.Client{Timeout: 30 * time.Second},
				Model:   build(),
				Subset:  subs[id],
				Cfg:     cfg,
				Rng:     rand.New(rand.NewSource(seed + int64(id))),
			}
			wire := "raw gob"
			if id%2 == 0 {
				c.Compression = &fldist.Compression{Bits: 8}
				wire = "8-bit deltas"
			}
			fmt.Printf("  client %d: %d samples, wire: %s\n", id, subs[id].Len(), wire)
			if err := c.RunRounds(ctx, rounds, 0.05); err != nil {
				fmt.Printf("  client %d: %v\n", id, err)
			}
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := srv.Stats()
	cancel()
	<-done
	fmt.Printf("\n%d rounds in %.2fs (%.1f updates/s)\n",
		st.RoundsCompleted, elapsed.Seconds(),
		float64(st.UpdatesRaw+st.UpdatesCompressed)/elapsed.Seconds())
	fmt.Printf("wire: in %d B raw + %d B compressed | out %d B raw + %d B compressed\n",
		st.BytesInRaw, st.BytesInCompressed, st.BytesOutRaw, st.BytesOutCompressed)
	fmt.Printf("admit latency: p50 %.0fµs  p99 %.0fµs  (%d shards, %d raw + %d compressed updates)\n",
		st.AdmitP50Micros, st.AdmitP99Micros, st.Shards, st.UpdatesRaw, st.UpdatesCompressed)
}
