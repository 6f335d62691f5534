// Edgetier: hierarchical aggregation through the public API — two edge
// aggregators pre-fold cohorts of training clients and push one combined
// update each to the root, over real HTTP on localhost.
//
//	go run ./examples/edgetier
//
// Six clients train a CNN3 on non-IID shards of the synthetic CIFAR10-S
// workload, but none of them ever talks to the root: each cohort of three
// (one on the compressed delta wire, two raw) pushes to its edge, the edge
// folds the cohort into one weighted delta and pushes it upstream, and the
// root commits when both tier deltas arrive. The final report reads the
// edges' /stats upstream sections next to the root's: the root admitted two
// pushes per round where a flat fleet would have cost it six, and every
// cohort pull was served from the edges' caches.
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
		nEdges  = 2
		fanIn   = 3
		clients = nEdges * fanIn
		rounds  = 4
		seed    = 11
	)
	build := func() *nn.Model {
		return nn.CNN3([]int{3, 16, 16}, 10, 4, rand.New(rand.NewSource(seed)))
	}
	m := build()

	// The root commits one round per full set of tier deltas: buffered
	// aggregation with K = number of edges.
	root := fedprophet.NewParamServer(nn.ExportParams(m), nn.ExportBNStats(m), 1,
		fedprophet.WithBufferedAggregation(nEdges, 4))
	rootLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	serveCtx, cancel := context.WithCancel(ctx)
	rootDone := make(chan error, 1)
	go func() { rootDone <- root.Serve(serveCtx, rootLn) }()
	rootURL := "http://" + rootLn.Addr().String()
	fmt.Printf("root on %s: commits every %d tier deltas, %d fold ranges\n",
		rootURL, nEdges, root.Shards())

	// One edge per cohort: flush as soon as the whole cohort has pushed.
	// Serve handles graceful drain on shutdown; here the fleet finishes all
	// its rounds, so every flush fires on depth.
	edges := make([]*fedprophet.EdgeAggregator, nEdges)
	edgeURLs := make([]string, nEdges)
	edgeDone := make([]chan error, nEdges)
	for i := range edges {
		edges[i] = fedprophet.NewEdgeAggregator(rootURL,
			fedprophet.WithEdgeTier(fmt.Sprintf("cohort-%c", 'a'+i)),
			fedprophet.WithEdgeFlush(fanIn, 0))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		edgeDone[i] = make(chan error, 1)
		e := edges[i]
		go func(c chan error, ln net.Listener) { c <- e.Serve(serveCtx, ln) }(edgeDone[i], ln)
		edgeURLs[i] = "http://" + ln.Addr().String()
		fmt.Printf("edge %q on %s → root (flush K=%d)\n", e.Name(), edgeURLs[i], fanIn)
	}

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
				BaseURL: edgeURLs[id/fanIn], // cohort clients never see the root
				HTTP:    &http.Client{Timeout: 30 * time.Second},
				Model:   build(),
				Subset:  subs[id],
				Cfg:     cfg,
				Rng:     rand.New(rand.NewSource(seed + int64(id))),
			}
			wire := "raw frames"
			if id%fanIn == 0 {
				c.Compression = &fldist.Compression{Bits: 8}
				wire = "8-bit deltas"
			}
			fmt.Printf("  client %d → edge %q: %d samples, wire: %s\n",
				id, edges[id/fanIn].Name(), subs[id].Len(), wire)
			if err := c.RunRounds(ctx, rounds, 0.05); err != nil {
				fmt.Printf("  client %d: %v\n", id, err)
			}
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Let the last flush land, then read the tier's accounting before
	// shutting everything down.
	deadline := time.Now().Add(10 * time.Second)
	for root.RoundsCompleted() < rounds && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	rst := root.Stats()
	fmt.Printf("\n%d root rounds in %.2fs: %d push admissions at the root (flat fleet: %d)\n",
		rst.RoundsCompleted, elapsed.Seconds(),
		rst.UpdatesRaw+rst.UpdatesCompressed, int64(clients*rounds))
	for _, e := range edges {
		up := e.Stats().Upstream
		fmt.Printf("edge %q: %d upstream pushes (%d by depth, %d by age, %d by drain), %d cohort pulls served from cache, base round %d\n",
			up.Cohort, up.Pushes, up.FlushK, up.FlushAge, up.FlushDrain,
			up.CohortPulls, up.BaseRound)
	}

	cancel()
	<-rootDone
	for _, c := range edgeDone {
		<-c
	}
}
