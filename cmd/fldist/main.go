// Command fldist runs the distributed federated-training transport: one
// process as the parameter server, any number of processes as clients.
// It federates standard or adversarial training of a CNN3 model on the
// synthetic CIFAR10-S workload across real HTTP.
//
// Server:
//
//	fldist -serve -addr :8080 -quorum 3
//
// Clients (each simulating one participant's shard):
//
//	fldist -connect http://localhost:8080 -client 0 -clients 3 -rounds 5
//	fldist -connect http://localhost:8080 -client 1 -clients 3 -rounds 5
//	fldist -connect http://localhost:8080 -client 2 -clients 3 -rounds 5
//
// Passing -bits (2..8) on a client switches it to the compressed delta wire
// protocol of docs/WIRE.md: quantized pulls and error-fed quantized delta
// pushes, negotiated per client, with -chunk values per quantization scale.
// The server accepts compressed and raw clients in the same round and
// reports bytes-on-wire on GET /stats (and in its shutdown log line).
//
// The server folds each commit over one range of the parameter vector per
// processor (the model is bit-identical at any count) and exposes
// per-update admit-latency percentiles on /stats. -pprof serves
// net/http/pprof for live profiling of either role.
//
// By default the server is a synchronous quorum aggregator. Passing
// -buffer K switches it to FedBuff-style buffered bounded-staleness
// aggregation: updates up to -staleness rounds behind the current round are
// admitted (down-weighted by 1/(1+staleness)) instead of rejected, and the
// model commits every K admitted updates — no round barrier, so a
// straggler's training pass is never thrown away while it stays inside the
// window. Clients run one loop in both modes (against a buffered server it
// pipelines pull→train→push), and the wire protocol is identical.
//
// Passing -wal <dir> makes the server crash-safe: commits and, in both
// aggregation modes, every admission between commits are appended to a
// write-ahead log in <dir> before they take effect, and any later boot with
// the same -wal recovers at the last commit with the admissions after it
// replayed — kill -9 included; the aggregation flags are then read from the
// log, not the command line. The log is one wal-<round>.seg file per round,
// and only the staleness window's newest are kept: after a clean stop <dir>
// holds wal.lock and -staleness+1 segments (one under -quorum). A <dir>
// holding the single-file wal.log of an earlier release is refused. A -connect client waits out the restart: a
// refused connection, reset or 502/503/504 is re-sent with backoff until the
// server answers again. -wal-handoff starts a
// successor that blocks until the incumbent exits (or dies) and takes over
// the federation at its last commit. On an edge, -wal durably parks the
// committed-but-unacknowledged upstream batch so a restarted edge re-pushes
// it under its original identity (the upstream drops the replay as a
// duplicate if it had already landed).
//
// Edge aggregator (the middle tier of a hierarchical topology):
//
//	fldist -edge -upstream http://root:8080 -addr :8081 -flush 8 -flush-age 500ms
//
// An edge serves its cohort of clients exactly like -serve does (same
// routes, same wire protocol, buffered admission) but pre-folds the
// cohort's admitted updates into one combined delta and pushes it to
// -upstream — the root, or another edge — as an ordinary wire update, so N
// clients cost the upstream one push per flush instead of N. -cohort takes
// a comma-separated list of names; with more than one, the process hosts
// one edge per cohort on one listener, each under its own path prefix
// (clients use http://edge:8081/<name>). SIGTERM drains: buffered cohort
// work is pushed upstream before the process exits.
//
// Each edge pushes upstream under a block of client IDs (-edge-id is the
// first block's base; successive cohorts take the following blocks). Edge
// processes sharing one upstream MUST use disjoint ID blocks — a collision
// makes the upstream's per-(round, client) dedup silently swallow another
// edge's flush — so the default is randomized per process; pass -edge-id
// explicitly for reproducible runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"fedprophet/internal/data"
	"fedprophet/internal/fl"
	"fedprophet/internal/fldist"
	"fedprophet/internal/nn"
)

func main() {
	var (
		serve     = flag.Bool("serve", false, "run the parameter server")
		addr      = flag.String("addr", ":8080", "server listen address")
		quorum    = flag.Int("quorum", 2, "updates per aggregation round")
		connect   = flag.String("connect", "", "server URL for client mode")
		clientID  = flag.Int("client", 0, "this client's index")
		clients   = flag.Int("clients", 2, "total number of clients (data partition)")
		rounds    = flag.Int("rounds", 5, "rounds to participate in")
		pgd       = flag.Int("pgd", 3, "PGD steps for adversarial training (0 = standard)")
		seed      = flag.Int64("seed", 1, "random seed (must match across processes)")
		bits      = flag.Int("bits", 0, "compressed delta wire protocol bit width, 2..8 (0 = exact raw frames)")
		chunk     = flag.Int("chunk", 0, "values per quantization scale (0 = default 256)")
		topk      = flag.Int("topk", 0, "client mode with -bits: send only the top-k coordinates of each error-fed delta uplink (0 = dense)")
		deltaPull = flag.Bool("delta-pull", false, "client mode with -bits: pull only the quantized global delta against the last held round (cold pull on the first round)")
		buffer    = flag.Int("buffer", 0, "buffered bounded-staleness aggregation: commit every K admitted updates (0 = synchronous quorum)")
		stale     = flag.Int("staleness", 4, "buffered mode: admit updates up to this many rounds behind, down-weighted 1/(1+staleness)")
		pprof     = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060) for live profiling")
		edge      = flag.Bool("edge", false, "run an edge aggregator between a client cohort and -upstream")
		upstream  = flag.String("upstream", "", "edge mode: upstream server URL (root or another edge)")
		cohort    = flag.String("cohort", "", "edge mode: cohort name(s), comma-separated; >1 serves each under /<name>/ on one listener")
		flushK    = flag.Int("flush", 8, "edge mode: push upstream once this many cohort updates buffered")
		flushAge  = flag.Duration("flush-age", 500*time.Millisecond, "edge mode: push upstream once the oldest buffered update is this old (0 = depth/drain only)")
		edgeID    = flag.Int("edge-id", 0, "edge mode: base of this process's upstream client ID blocks, one block of fldist.EdgeIDSpan IDs per cohort; must be disjoint across edge processes sharing an upstream (0 = randomize)")
		walDir    = flag.String("wal", "", "server/edge mode: write-ahead log directory (a server keeps one segment file per round, only the staleness window's); a restart (or crash) resumes from it, so the first boot creates the log and every later boot recovers")
		handoff   = flag.Bool("wal-handoff", false, "server mode with -wal: wait for the process currently holding the WAL to exit, then take over at its last commit")
	)
	flag.Parse()

	if *pprof != "" {
		go func() {
			// The default mux carries the pprof handlers via the blank
			// import; this listener serves only them.
			log.Printf("pprof on %s", *pprof)
			log.Println(http.ListenAndServe(*pprof, nil))
		}()
	}

	build := func() *nn.Model {
		return nn.CNN3([]int{3, 16, 16}, 10, 4, rand.New(rand.NewSource(*seed)))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *edge:
		if *upstream == "" {
			log.Fatal("edge mode needs -upstream <url>")
		}
		names := strings.Split(*cohort, ",")
		if *cohort == "" {
			names = []string{""}
		}
		idBase := *edgeID
		if idBase == 0 {
			// Randomized per process (off the auto-seeded global RNG, not
			// the deterministic -seed one): two standalone edge processes
			// sharing an upstream must not draw the same ID block, or the
			// upstream's per-(round, client) dedup would silently swallow
			// one edge's flushes. Span-aligned, clear of hand-assigned
			// client IDs.
			idBase = 1<<20 + fldist.EdgeIDSpan*(1+rand.Intn(1<<24))
		}
		mkEdge := func(name string, i int) *fldist.Edge {
			opts := []fldist.EdgeOption{
				fldist.WithEdgeName(name),
				fldist.WithEdgeClientID(idBase + i*fldist.EdgeIDSpan),
				fldist.WithEdgeFlush(*flushK, *flushAge),
				fldist.WithEdgeWindow(*stale),
			}
			if *walDir != "" {
				// One parked-batch slot per cohort; a restarted process
				// re-pushes each cohort's unacknowledged batch before
				// serving (deduped upstream if it had landed).
				opts = append(opts, fldist.WithEdgeWAL(filepath.Join(*walDir, "cohort-"+name)))
			}
			return fldist.NewEdge(*upstream, opts...)
		}
		if len(names) == 1 {
			e := mkEdge(names[0], 0)
			log.Printf("edge aggregator on %s → %s (cohort %q, upstream IDs [%d,%d), flush K=%d age=%s, window ≤%d)",
				*addr, *upstream, names[0], e.ClientID(), e.ClientID()+fldist.EdgeIDSpan, *flushK, *flushAge, *stale)
			// Serve drains on SIGTERM: buffered cohort work is pushed
			// upstream before we exit.
			if err := e.ListenAndServe(ctx, *addr); err != nil {
				log.Fatal(err)
			}
			logEdgeStats(e)
			return
		}
		// Several cohorts: one edge each, mounted under /<name>/ on one
		// listener, each drained on shutdown.
		edges := make([]*fldist.Edge, len(names))
		for i, name := range names {
			edges[i] = mkEdge(name, i)
		}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("edge cohorts on %s → %s (cohorts %v, upstream IDs from %d, flush K=%d age=%s)",
			*addr, *upstream, names, idBase, *flushK, *flushAge)
		if err := fldist.ServeCohorts(ctx, ln, edges); err != nil {
			log.Fatal(err)
		}
		for _, e := range edges {
			logEdgeStats(e)
		}

	case *serve:
		m := build()
		var srv *fldist.Server
		var mode string
		switch {
		case *walDir != "" && *handoff:
			// Live handoff: block until the incumbent releases the log (the
			// kernel drops its flock on any exit, crash included), then
			// resume at its last commit.
			log.Printf("waiting for WAL handoff from %s", *walDir)
			s, err := fldist.Handoff(ctx, *walDir)
			if err != nil {
				log.Fatal(err)
			}
			srv, mode = s, fmt.Sprintf("recovered via handoff at round %d", s.Round())
		case *walDir != "" && fldist.WALExists(*walDir):
			// Every boot after the first recovers: the aggregation mode and
			// thresholds come from the log, not the flags.
			s, err := fldist.RecoverServer(*walDir)
			if err != nil {
				log.Fatal(err)
			}
			srv, mode = s, fmt.Sprintf("recovered from WAL at round %d", s.Round())
		default:
			var opts []fldist.ServerOption
			mode = fmt.Sprintf("quorum %d", *quorum)
			if *buffer > 0 {
				opts = append(opts, fldist.WithBufferedAggregation(*buffer, *stale))
				mode = fmt.Sprintf("buffered K=%d staleness≤%d", *buffer, *stale)
			}
			if *walDir != "" {
				opts = append(opts, fldist.WithWAL(*walDir))
				mode += fmt.Sprintf(", WAL %s", *walDir)
			}
			srv = fldist.NewServer(nn.ExportParams(m), nn.ExportBNStats(m), *quorum, opts...)
		}
		log.Printf("parameter server on %s (%s, model %s, %d params, %d fold ranges)",
			*addr, mode, m.Label, nn.NumParams(m), srv.Shards())
		if err := srv.ListenAndServe(ctx, *addr); err != nil {
			log.Fatal(err)
		}
		st := srv.Stats()
		log.Printf("parameter server shut down after %d completed rounds", st.RoundsCompleted)
		if b := st.Buffered; b != nil {
			log.Printf("staleness: admitted histogram %v, %d rejected outside window ≤%d",
				b.StalenessHist, b.StaleRejected, b.MaxStaleness)
		}
		log.Printf("wire traffic: in %d B raw + %d B compressed, out %d B raw + %d B compressed (%d raw / %d compressed updates)",
			st.BytesInRaw, st.BytesInCompressed, st.BytesOutRaw, st.BytesOutCompressed,
			st.UpdatesRaw, st.UpdatesCompressed)
		log.Printf("admit latency: p50 %.0fµs p99 %.0fµs, %d fold ranges",
			st.AdmitP50Micros, st.AdmitP99Micros, st.Shards)
		log.Printf("pull latency: p50 %.0fµs p99 %.0fµs, %d served-model builds",
			st.PullP50Micros, st.PullP99Micros, st.ServedBuilds)

	case *connect != "":
		cfg := fl.DefaultConfig()
		cfg.LocalIters = 10
		cfg.Batch = 16
		train, _ := data.Generate(data.CIFAR10SConfig(60, 10, *seed))
		subs := data.PartitionNonIID(train, data.DefaultPartition(*clients, *seed))
		if *clientID < 0 || *clientID >= len(subs) {
			log.Fatalf("client index %d out of range [0,%d)", *clientID, len(subs))
		}
		c := &fldist.Client{
			ID:       *clientID,
			BaseURL:  *connect,
			HTTP:     &http.Client{Timeout: 30 * time.Second},
			Model:    build(),
			Subset:   subs[*clientID],
			Cfg:      cfg,
			Rng:      rand.New(rand.NewSource(*seed + int64(*clientID))),
			PGDSteps: *pgd,
		}
		wire := "raw frames"
		if *bits != 0 {
			c.Compression = &fldist.Compression{Bits: *bits, Chunk: *chunk, TopK: *topk, Delta: *deltaPull}
			wire = fmt.Sprintf("%d-bit error-fed deltas", *bits)
			if *topk > 0 {
				wire += fmt.Sprintf(", top-%d sparse uplink", *topk)
			}
			if *deltaPull {
				wire += ", delta downlink"
			}
		} else if *topk > 0 || *deltaPull {
			log.Fatal("fldist: -topk and -delta-pull require -bits (they ride the compressed codec)")
		}
		log.Printf("client %d: %d local samples, PGD-%d, %d rounds, wire: %s",
			*clientID, subs[*clientID].Len(), *pgd, *rounds, wire)
		if err := c.RunRounds(ctx, *rounds, 0.04); err != nil {
			log.Fatal(err)
		}
		log.Printf("client %d: done (%d stale retrains)", *clientID, c.StaleRetrains)

	default:
		fmt.Println("specify -serve, -edge -upstream <url>, or -connect <url>; see -h")
	}
}

// logEdgeStats prints an edge's shutdown summary: the upstream tier section
// next to the cohort-facing admission numbers.
func logEdgeStats(e *fldist.Edge) {
	up := e.Stats().Upstream
	log.Printf("edge %q: %d upstream pushes (%d by depth, %d by age, %d by drain), %d rebased, %d retries, %d cohort pulls served from cache",
		e.Name(), up.Pushes, up.FlushK, up.FlushAge, up.FlushDrain, up.Rebased, up.Retries, up.CohortPulls)
}
