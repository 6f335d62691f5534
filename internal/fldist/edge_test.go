package fldist

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The hierarchical-aggregation tests. The bit-identity tests drive both the
// tiered tree and the flat fleet with *grid-valued* synthetic updates:
// every parameter sits on the 2⁻¹² lattice with a small integer numerator,
// every weight is 1.0, and every batch size is a power of two, so every
// product, sum and division in both folds is exact in float64 — the
// root==flat identity then holds bitwise because the underlying algebra is
// grouping-invariant, not because two float expression trees happen to
// round alike. (For general values, regrouping a weighted average is a
// reassociation and bitwise equality is NOT an IEEE-754 identity; the
// full-precision test below pins tiered-run determinism bitwise and
// tiered-vs-flat to tolerance instead. docs/ARCHITECTURE.md spells the
// argument out.)

// gridVec builds a deterministic vector on the 2⁻¹² lattice.
func gridVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(rng.Intn(4096)-2048) / 4096
	}
	return v
}

// gridDelta is client id's fixed training delta on the 2⁻¹⁰ lattice. The
// delta is independent of the pulled base, so a client contributes the same
// delta whether it trains from the root model or an edge's local model —
// what makes multi-flush tiered schedules comparable to their flat
// counterparts value-for-value.
func gridDelta(n, id int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64((id+1)*(i%13-6)) / 1024
	}
	return out
}

func addVecs(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range out {
		out[i] = a[i] + b[i]
	}
	return out
}

// pushRawT pushes a raw gob update and returns the HTTP status.
func pushRawT(t *testing.T, hc *http.Client, baseURL string, id, round int, weight float64, params, bn []float64) int {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(Update{
		ClientID: id, Round: round, Weight: weight, Params: params, BN: bn,
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := hc.Post(baseURL+"/update", contentTypeGob, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// pullRawT pulls the raw model from any aggregator (root or edge).
func pullRawT(t *testing.T, hc *http.Client, baseURL string) (int, []float64, []float64) {
	t.Helper()
	resp, err := hc.Get(baseURL + "/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pull: %s", resp.Status)
	}
	var blob ModelBlob
	if err := gob.NewDecoder(resp.Body).Decode(&blob); err != nil {
		t.Fatal(err)
	}
	return blob.Round, blob.Params, blob.BN
}

// awaitFn polls f until it reports true, failing the test after deadline.
func awaitFn(t *testing.T, what string, f func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !f() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// cohortRun pulls the edge and pushes base+gridDelta(id) for each id, in
// order, all at weight 1.
func cohortRun(t *testing.T, hc *http.Client, edgeURL string, ids []int) {
	t.Helper()
	for _, id := range ids {
		round, base, baseBN := pullRawT(t, hc, edgeURL)
		params := addVecs(base, gridDelta(len(base), id))
		bn := addVecs(baseBN, gridDelta(len(baseBN), id))
		if st := pushRawT(t, hc, edgeURL, id, round, 1, params, bn); st != http.StatusOK {
			t.Fatalf("cohort client %d push via edge: status %d", id, st)
		}
	}
}

// flatRun aggregates the same 8 grid clients against a flat synchronous
// root and returns the committed model.
func flatRun(t *testing.T, init, initBN []float64, shards int, ids []int) ([]float64, []float64) {
	t.Helper()
	root := NewServer(init, initBN, len(ids), WithShards(shards))
	ts := httptest.NewServer(root.Handler())
	defer ts.Close()
	hc := ts.Client()
	for _, id := range ids {
		round, base, baseBN := pullRawT(t, hc, ts.URL)
		params := addVecs(base, gridDelta(len(base), id))
		bn := addVecs(baseBN, gridDelta(len(baseBN), id))
		if st := pushRawT(t, hc, ts.URL, id, round, 1, params, bn); st != http.StatusOK {
			t.Fatalf("flat client %d push: status %d", id, st)
		}
	}
	awaitFn(t, "flat root commit", func() bool { return root.Round() == 1 })
	return root.Snapshot()
}

// startEdge builds, starts and serves an edge over httptest, returning the
// edge and its base URL. Cleanup tears the edge down before the upstream.
func startEdge(t *testing.T, upstream string, opts ...EdgeOption) (*Edge, string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	e := NewEdge(upstream, opts...)
	if err := e.Start(ctx); err != nil {
		cancel()
		t.Fatalf("edge start: %v", err)
	}
	ets := httptest.NewServer(e.Handler())
	t.Cleanup(func() {
		ets.Close()
		cancel()
		<-e.done
	})
	return e, ets.URL
}

// The headline tier pin, in the -race suite: a 2-tier tree over a fixed
// admitted multiset commits bit-identically to the flat fleet, across shard
// counts, GOMAXPROCS, and edge/direct mixes, with the root admitting one push
// per edge rather than one per client.
func TestTwoTierCommitBitIdenticalToFlatFleet(t *testing.T) {
	const nParams, nBN = 257, 6
	init := gridVec(nParams, 1)
	initBN := gridVec(nBN, 2)
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}

	for _, tc := range []struct {
		name    string
		shards  int
		gmp     int
		cohorts [][]int // clients behind each edge
		direct  []int   // clients pushing straight at the root
	}{
		{"2edges/shards1/gmp1", 1, 1, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}, nil},
		{"2edges/shards3/gmp4", 3, 4, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}, nil},
		{"mixed/shards5/gmp2", 5, 2, [][]int{{0, 1, 2, 3}}, []int{4, 5, 6, 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.gmp))

			wantP, wantBN := flatRun(t, init, initBN, tc.shards, ids)

			quorum := len(tc.cohorts) + len(tc.direct)
			root := NewServer(init, initBN, quorum, WithShards(tc.shards))
			ts := httptest.NewServer(root.Handler())
			defer ts.Close()
			hc := ts.Client()

			var edges []*Edge
			for i, cohort := range tc.cohorts {
				e, edgeURL := startEdge(t, ts.URL,
					WithEdgeClientID(1000+i*EdgeIDSpan),
					WithEdgeFlush(len(cohort), 0),
					WithEdgeShards(tc.shards))
				edges = append(edges, e)
				cohortRun(t, hc, edgeURL, cohort)
			}
			for _, id := range tc.direct {
				round, base, baseBN := pullRawT(t, hc, ts.URL)
				params := addVecs(base, gridDelta(nParams, id))
				bn := addVecs(baseBN, gridDelta(nBN, id))
				if st := pushRawT(t, hc, ts.URL, id, round, 1, params, bn); st != http.StatusOK {
					t.Fatalf("direct client %d push: status %d", id, st)
				}
			}

			awaitFn(t, "tiered root commit", func() bool { return root.Round() == 1 })
			gotP, gotBN := root.Snapshot()
			for i := range wantP {
				if gotP[i] != wantP[i] {
					t.Fatalf("params[%d] = %v, flat fleet committed %v (not bit-identical)", i, gotP[i], wantP[i])
				}
			}
			for i := range wantBN {
				if gotBN[i] != wantBN[i] {
					t.Fatalf("bn[%d] = %v, flat fleet committed %v (not bit-identical)", i, gotBN[i], wantBN[i])
				}
			}

			// Every edge resyncs after its flush: adopted base round 1, one
			// counted upstream push, flushed on the K trigger.
			for i, e := range edges {
				awaitFn(t, "edge resync", func() bool { return int(e.baseRoundA.Load()) == 1 })
				up := e.Stats().Upstream
				if up.Pushes != 1 || up.FlushK != 1 || up.FlushAge != 0 {
					t.Fatalf("edge %d upstream stats: %+v", i, up)
				}
			}
			// The root admitted one push per edge, not one per client. Every
			// push has been answered by now, and the root counts an update
			// before it answers.
			st := root.Stats()
			if got, want := st.UpdatesRaw+st.UpdatesCompressed, int64(len(tc.cohorts)+len(tc.direct)); got != want {
				t.Fatalf("root admitted %d updates, want %d (one per edge plus one per direct client)", got, want)
			}
		})
	}
}

// Multi-flush schedules stay on the flat fleet's trajectory: with flush K=2
// against a buffered root, two flush cycles per edge (commit → push → adopt
// the root's intermediate model) commit bit-identically to the flat
// buffered fleet pushing the same deltas in the same two batches.
func TestTwoTierMultiFlushBitIdenticalToFlat(t *testing.T) {
	const nParams, nBN = 130, 4
	init := gridVec(nParams, 3)
	initBN := gridVec(nBN, 4)

	// Flat reference: buffered root, K=4; batch 1 = clients {0,1,4,5} from
	// round 0, batch 2 = clients {2,3,6,7} from the committed round 1.
	flat := NewServer(init, initBN, 1, WithBufferedAggregation(4, 2))
	fts := httptest.NewServer(flat.Handler())
	defer fts.Close()
	for _, batch := range [][]int{{0, 1, 4, 5}, {2, 3, 6, 7}} {
		before := flat.Round()
		cohortRun(t, fts.Client(), fts.URL, batch)
		awaitFn(t, "flat buffered commit", func() bool { return flat.Round() == before+1 })
	}
	wantP, wantBN := flat.Snapshot()

	// Tiered: buffered root committing every 2 tier deltas, 2 edges with
	// flush K=2, the same clients in the same batches.
	root := NewServer(init, initBN, 1, WithBufferedAggregation(2, 2))
	ts := httptest.NewServer(root.Handler())
	defer ts.Close()
	eA, urlA := startEdge(t, ts.URL, WithEdgeClientID(1000), WithEdgeFlush(2, 0))
	eB, urlB := startEdge(t, ts.URL, WithEdgeClientID(1000+EdgeIDSpan), WithEdgeFlush(2, 0))

	cohortRun(t, ts.Client(), urlA, []int{0, 1})
	cohortRun(t, ts.Client(), urlB, []int{4, 5})
	awaitFn(t, "root round 1", func() bool { return root.Round() == 1 })
	// Both edges must adopt round 1 before the second batch pulls, so the
	// second batch's deltas are taken against the intermediate model.
	awaitFn(t, "edge A adopt", func() bool { return int(eA.baseRoundA.Load()) == 1 })
	awaitFn(t, "edge B adopt", func() bool { return int(eB.baseRoundA.Load()) == 1 })

	cohortRun(t, ts.Client(), urlA, []int{2, 3})
	cohortRun(t, ts.Client(), urlB, []int{6, 7})
	awaitFn(t, "root round 2", func() bool { return root.Round() == 2 })

	gotP, gotBN := root.Snapshot()
	for i := range wantP {
		if gotP[i] != wantP[i] {
			t.Fatalf("params[%d] = %v, flat fleet committed %v (not bit-identical)", i, gotP[i], wantP[i])
		}
	}
	for i := range wantBN {
		if gotBN[i] != wantBN[i] {
			t.Fatalf("bn[%d] = %v, flat fleet committed %v", i, gotBN[i], wantBN[i])
		}
	}
	for _, e := range []*Edge{eA, eB} {
		// The root commits before the edge's push response returns, so the
		// push counter can trail the committed round briefly.
		awaitFn(t, "edge push accounting", func() bool { return e.Stats().Upstream.Pushes == 2 })
		if up := e.Stats().Upstream; up.FlushK != 2 {
			t.Fatalf("edge upstream stats after two flush cycles: %+v", up)
		}
	}
}

// Full-precision (off-grid) runs: regrouping a weighted average reassociates
// float64 additions, so tiered-vs-flat is pinned to tolerance — but the
// tiered run itself must be bit-deterministic across shard counts,
// GOMAXPROCS and cohort push order.
func TestTwoTierFullPrecisionDeterminism(t *testing.T) {
	const nParams, nBN = 301, 5
	init := synthVec(nParams, 10)
	initBN := synthVec(nBN, 11)

	run := func(shards, gmp int, order []int) ([]float64, []float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gmp))
		root := NewServer(init, initBN, 2, WithShards(shards))
		ts := httptest.NewServer(root.Handler())
		defer ts.Close()
		_, urlA := startEdge(t, ts.URL, WithEdgeClientID(1000), WithEdgeFlush(4, 0), WithEdgeShards(shards))
		_, urlB := startEdge(t, ts.URL, WithEdgeClientID(1000+EdgeIDSpan), WithEdgeFlush(4, 0), WithEdgeShards(shards))
		for _, id := range order {
			url := urlA
			if id >= 4 {
				url = urlB
			}
			round, base, baseBN := pullRawT(t, ts.Client(), url)
			params := make([]float64, nParams)
			for i := range params {
				params[i] = base[i] + 1e-3*float64(id+1)*synthVec(nParams, int64(id))[i]
			}
			bn := make([]float64, nBN)
			for i := range bn {
				bn[i] = baseBN[i] + 1e-3*float64(id+1)*synthVec(nBN, int64(id+100))[i]
			}
			if st := pushRawT(t, ts.Client(), url, id, round, float64(id+1), params, bn); st != http.StatusOK {
				t.Fatalf("client %d push: status %d", id, st)
			}
		}
		awaitFn(t, "tiered root commit", func() bool { return root.Round() == 1 })
		return root.Snapshot()
	}

	wantP, wantBN := run(1, 1, []int{0, 1, 2, 3, 4, 5, 6, 7})
	for _, tc := range []struct {
		shards, gmp int
		order       []int
	}{
		{4, 4, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{7, 2, []int{3, 0, 2, 1, 7, 5, 4, 6}},
	} {
		gotP, gotBN := run(tc.shards, tc.gmp, tc.order)
		for i := range wantP {
			if gotP[i] != wantP[i] {
				t.Fatalf("shards=%d gmp=%d: params[%d] = %v, want %v (tiered run not deterministic)",
					tc.shards, tc.gmp, i, gotP[i], wantP[i])
			}
		}
		for i := range wantBN {
			if gotBN[i] != wantBN[i] {
				t.Fatalf("shards=%d gmp=%d: bn[%d] not deterministic", tc.shards, tc.gmp, i)
			}
		}
	}
}

// The age trigger: fewer than K updates still reach the root once the oldest
// buffered update is flushAge old, as one combined delta of the right
// weight (sync root: fold of W·m′ at total weight W reproduces m′ exactly).
func TestEdgeAgeFlush(t *testing.T) {
	const nParams, nBN = 65, 3
	init := gridVec(nParams, 5)
	initBN := gridVec(nBN, 6)
	root := NewServer(init, initBN, 1)
	ts := httptest.NewServer(root.Handler())
	defer ts.Close()

	e, edgeURL := startEdge(t, ts.URL, WithEdgeClientID(1000), WithEdgeFlush(100, 40*time.Millisecond))
	cohortRun(t, ts.Client(), edgeURL, []int{0, 1})

	awaitFn(t, "age-triggered root commit", func() bool { return root.Round() == 1 })
	// The root commits before the edge's push response returns; await the
	// edge-side accounting rather than asserting it immediately.
	awaitFn(t, "edge push accounting", func() bool { return e.Stats().Upstream.Pushes == 1 })
	up := e.Stats().Upstream
	if up.FlushAge != 1 || up.FlushK != 0 {
		t.Fatalf("upstream stats after age flush: %+v", up)
	}

	gotP, _ := root.Snapshot()
	sum := addVecs(gridDelta(nParams, 0), gridDelta(nParams, 1))
	for i := range gotP {
		want := init[i] + sum[i]/2
		if gotP[i] != want {
			t.Fatalf("params[%d] = %v, want %v", i, gotP[i], want)
		}
	}
}

// Graceful drain: an edge whose flush policy never fired pushes its buffer
// upstream on shutdown — SIGTERM does not strand admitted cohort work.
func TestEdgeDrainFlushesBufferedUpdates(t *testing.T) {
	const nParams, nBN = 65, 3
	init := gridVec(nParams, 7)
	initBN := gridVec(nBN, 8)
	root := NewServer(init, initBN, 1)
	ts := httptest.NewServer(root.Handler())
	defer ts.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := NewEdge(ts.URL, WithEdgeClientID(1000), WithEdgeFlush(100, 0))
	serveErr := make(chan error, 1)
	go func() { serveErr <- e.Serve(ctx, ln) }()
	edgeURL := "http://" + ln.Addr().String()
	awaitFn(t, "edge serving", func() bool {
		resp, err := http.Get(edgeURL + "/round")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return true
	})

	cohortRun(t, ts.Client(), edgeURL, []int{0, 1})
	if root.Round() != 0 {
		t.Fatalf("root advanced before drain: round %d", root.Round())
	}

	cancel()
	if err := <-serveErr; err != nil {
		t.Fatalf("edge serve: %v", err)
	}
	if root.Round() != 1 {
		t.Fatalf("drain did not reach the root: round %d", root.Round())
	}
	if up := e.Stats().Upstream; up.FlushDrain != 1 {
		t.Fatalf("upstream stats after drain: %+v", up)
	}
	gotP, _ := root.Snapshot()
	sum := addVecs(gridDelta(nParams, 0), gridDelta(nParams, 1))
	for i := range gotP {
		want := init[i] + sum[i]/2
		if gotP[i] != want {
			t.Fatalf("params[%d] = %v, want %v", i, gotP[i], want)
		}
	}
}

// A mid-flight drain racing the root's own graceful shutdown is atomic at
// the root: the flush is either fully admitted (committed model) or cleanly
// rejected (untouched model) — never half-applied.
func TestEdgeDrainVsRootShutdownAtomic(t *testing.T) {
	const nParams = 65
	init := gridVec(nParams, 9)
	for _, delay := range []time.Duration{0, 2 * time.Millisecond, 8 * time.Millisecond} {
		root := NewServer(init, nil, 1)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		rootCtx, cancelRoot := context.WithCancel(context.Background())
		rootErr := make(chan error, 1)
		go func() { rootErr <- root.Serve(rootCtx, ln) }()
		rootURL := "http://" + ln.Addr().String()
		awaitFn(t, "root serving", func() bool {
			resp, err := http.Get(rootURL + "/round")
			if err != nil {
				return false
			}
			resp.Body.Close()
			return true
		})

		e, edgeURL := startEdge(t, rootURL, WithEdgeClientID(1000), WithEdgeFlush(100, 0))
		cohortRun(t, http.DefaultClient, edgeURL, []int{0, 1})

		drainCtx, cancelDrain := context.WithTimeout(context.Background(), 500*time.Millisecond)
		drained := make(chan error, 1)
		go func() { drained <- e.Drain(drainCtx) }()
		time.Sleep(delay)
		cancelRoot()
		derr := <-drained
		cancelDrain()
		if err := <-rootErr; err != nil {
			t.Fatalf("root serve: %v", err)
		}

		gotP, _ := root.Snapshot()
		switch root.Round() {
		case 0:
			if derr == nil {
				t.Fatalf("delay %v: drain reported success but the root never admitted", delay)
			}
			for i := range gotP {
				if gotP[i] != init[i] {
					t.Fatalf("delay %v: rejected drain mutated the root model", delay)
				}
			}
		case 1:
			sum := addVecs(gridDelta(nParams, 0), gridDelta(nParams, 1))
			for i := range gotP {
				if want := init[i] + sum[i]/2; gotP[i] != want {
					t.Fatalf("delay %v: admitted drain only half-applied: params[%d] = %v, want %v",
						delay, i, gotP[i], want)
				}
			}
		default:
			t.Fatalf("delay %v: root at round %d", delay, root.Round())
		}
	}
}

// Upstream failure: while the root is unreachable the edge retries with
// jittered backoff and keeps serving cohort pulls from its cache; when the
// root returns, the buffered flush lands intact.
func TestEdgeRetriesUnreachableUpstreamAndServesCachedPulls(t *testing.T) {
	const nParams, nBN = 65, 3
	init := gridVec(nParams, 12)
	initBN := gridVec(nBN, 13)
	root := NewServer(init, initBN, 1)
	inner := root.Handler()
	var up atomic.Bool
	up.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !up.Load() {
			http.Error(w, "upstream down", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	e, edgeURL := startEdge(t, ts.URL, WithEdgeClientID(1000), WithEdgeFlush(2, 0))
	up.Store(false) // kill the upstream after the initial pull
	cohortRun(t, ts.Client(), edgeURL, []int{0, 1})

	awaitFn(t, "upstream retries", func() bool { return e.Stats().Upstream.Retries >= 2 })
	// Cohort pulls keep working off the edge's local model while the flush
	// retries: the flush already committed locally (round 1), so the cache
	// serves the folded cohort model without the root's help.
	round, params, _ := pullRawT(t, ts.Client(), edgeURL)
	if round != 1 {
		t.Fatalf("cached pull round = %d, want 1 (local commit)", round)
	}
	sumD := addVecs(gridDelta(nParams, 0), gridDelta(nParams, 1))
	for i := range params {
		if want := init[i] + sumD[i]/2; params[i] != want {
			t.Fatalf("cached pull diverged from the local commit at [%d]: %v, want %v", i, params[i], want)
		}
	}
	if e.Stats().Upstream.CohortPulls < 3 {
		t.Fatalf("cohort pulls not counted: %+v", e.Stats().Upstream)
	}
	if root.Round() != 0 {
		t.Fatal("push reached a down upstream")
	}

	up.Store(true)
	awaitFn(t, "flush landing after recovery", func() bool { return root.Round() == 1 })
	// Await the edge-side accounting: the root commit precedes the push
	// response that increments the counter.
	awaitFn(t, "push accounting after recovery", func() bool { return e.Stats().Upstream.Pushes == 1 })
}

// Staleness compounding: a tier delta pushed from a base the root has
// committed past is admitted with the root's 1/(1+s) discount on the
// cohort's combined weight — the edge push lands in the root histogram at
// its root-side staleness, and the committed model carries the discount
// exactly (grid values, power-of-two weights).
func TestEdgeStalePushLandsWithCombinedStaleness(t *testing.T) {
	const nParams = 129
	init := gridVec(nParams, 14)
	root := NewServer(init, nil, 1, WithBufferedAggregation(2, 2))
	ts := httptest.NewServer(root.Handler())
	defer ts.Close()

	eA, urlA := startEdge(t, ts.URL, WithEdgeClientID(1000), WithEdgeFlush(1, 0))
	eB, urlB := startEdge(t, ts.URL, WithEdgeClientID(1000+EdgeIDSpan), WithEdgeFlush(1, 0))

	// Two direct clients commit root round 1 while both edges still hold
	// round-0 bases.
	for _, id := range []int{50, 51} {
		round, base, _ := pullRawT(t, ts.Client(), ts.URL)
		params := addVecs(base, gridDelta(nParams, id))
		if st := pushRawT(t, ts.Client(), ts.URL, id, round, 1, params, nil); st != http.StatusOK {
			t.Fatalf("direct client %d push: status %d", id, st)
		}
	}
	awaitFn(t, "root round 1", func() bool { return root.Round() == 1 })
	m1, _ := root.Snapshot()

	// One cohort client behind each edge: the flushes push base round 0
	// against a round-1 root — staleness 1, effective weight 1/2 each.
	cohortRun(t, ts.Client(), urlA, []int{0})
	cohortRun(t, ts.Client(), urlB, []int{4})
	awaitFn(t, "root round 2", func() bool { return root.Round() == 2 })

	hist := root.Stats().Buffered.StalenessHist
	if hist[0] != 2 || hist[1] != 2 {
		t.Fatalf("root staleness histogram = %v, want [2 2 ...]", hist)
	}
	for _, e := range []*Edge{eA, eB} {
		if ih := e.Stats().Buffered.StalenessHist; ih[0] != 1 {
			t.Fatalf("edge inner histogram = %v, want [1 ...]", ih)
		}
	}

	// m2 = m1 + (½·δ0 + ½·δ4)/(½+½): both tier deltas at weight 1,
	// discounted to ½ by staleness 1 — exact on the grid.
	gotP, _ := root.Snapshot()
	for i := range gotP {
		want := m1[i] + (gridDelta(nParams, 0)[i]/2+gridDelta(nParams, 4)[i]/2)/1
		if gotP[i] != want {
			t.Fatalf("params[%d] = %v, want %v (staleness discount misapplied)", i, gotP[i], want)
		}
	}
}

// Topologies nest: a 3-tier chain (client → edge2 → edge1 → root) delivers
// the single client's exact delta to the root.
func TestEdgeTiersNest(t *testing.T) {
	const nParams = 33
	init := gridVec(nParams, 15)
	root := NewServer(init, nil, 1)
	ts := httptest.NewServer(root.Handler())
	defer ts.Close()

	_, url1 := startEdge(t, ts.URL, WithEdgeClientID(1000), WithEdgeFlush(1, 0))
	_, url2 := startEdge(t, url1, WithEdgeClientID(2000), WithEdgeFlush(1, 0))

	cohortRun(t, ts.Client(), url2, []int{0})
	awaitFn(t, "3-tier delivery", func() bool { return root.Round() == 1 })
	gotP, _ := root.Snapshot()
	for i := range gotP {
		want := init[i] + gridDelta(nParams, 0)[i]
		if gotP[i] != want {
			t.Fatalf("params[%d] = %v, want %v", i, gotP[i], want)
		}
	}
}

// The edge's /stats carries both the inner buffered section and the
// upstream tier section over HTTP.
func TestEdgeStatsEndpoint(t *testing.T) {
	init := gridVec(32, 16)
	root := NewServer(init, nil, 1)
	ts := httptest.NewServer(root.Handler())
	defer ts.Close()
	_, edgeURL := startEdge(t, ts.URL,
		WithEdgeName("cohort-a"), WithEdgeClientID(1000), WithEdgeFlush(100, 0))

	cohortRun(t, ts.Client(), edgeURL, []int{0})
	resp, err := http.Get(edgeURL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Buffered == nil {
		t.Fatal("edge stats missing the buffered section")
	}
	if st.Upstream == nil {
		t.Fatal("edge stats missing the upstream section")
	}
	if st.Upstream.Cohort != "cohort-a" || st.Upstream.URL != ts.URL {
		t.Fatalf("upstream section = %+v", st.Upstream)
	}
	if st.Upstream.Buffered != 1 || st.Upstream.CohortPulls != 1 {
		t.Fatalf("upstream section = %+v", st.Upstream)
	}
}

// Two drain pushes from one adopted base land as two distinct admissions at
// a buffered upstream: each committed batch pushes under its own identity
// inside the edge's EdgeIDSpan ID block, so the upstream's per-(round,
// client) dedup — which would answer a reused identity with a duplicate-200
// the edge cannot tell from success — never swallows the rebased second
// batch. (A synchronous root masks this case by advancing its round between
// the pushes; a buffered root sitting below its commit threshold does not.)
func TestEdgeDrainTwiceFromOneBaseNotDeduped(t *testing.T) {
	const nParams, nBN = 65, 3
	init := gridVec(nParams, 17)
	initBN := gridVec(nBN, 18)
	// Buffered root, K=2: the first drain push buffers without committing,
	// so the second drain pushes from the very same base round.
	root := NewServer(init, initBN, 1, WithBufferedAggregation(2, 4))
	ts := httptest.NewServer(root.Handler())
	defer ts.Close()

	e, edgeURL := startEdge(t, ts.URL, WithEdgeClientID(1000), WithEdgeFlush(100, 0))
	ctx := context.Background()

	cohortRun(t, ts.Client(), edgeURL, []int{0})
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("first drain: %v", err)
	}
	if root.Round() != 0 {
		t.Fatalf("root committed after one buffered admission: round %d", root.Round())
	}
	cohortRun(t, ts.Client(), edgeURL, []int{1})
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}

	// The second batch fills the root's K=2 buffer: both drain batches were
	// admitted (no dedup drop), and the committed model carries both deltas.
	if root.Round() != 1 {
		t.Fatalf("root round = %d after two drains, want 1 (second drain batch dedup-dropped?)", root.Round())
	}
	if n := root.Stats().DuplicatesDropped; n != 0 {
		t.Fatalf("root dedup swallowed a drain batch: %d duplicates dropped", n)
	}
	gotP, gotBN := root.Snapshot()
	sumP := addVecs(gridDelta(nParams, 0), gridDelta(nParams, 1))
	for i := range gotP {
		if want := init[i] + sumP[i]/2; gotP[i] != want {
			t.Fatalf("params[%d] = %v, want %v (a drain batch was lost)", i, gotP[i], want)
		}
	}
	sumBN := addVecs(gridDelta(nBN, 0), gridDelta(nBN, 1))
	for i := range gotBN {
		if want := initBN[i] + sumBN[i]/2; gotBN[i] != want {
			t.Fatalf("bn[%d] = %v, want %v (a drain batch was lost)", i, gotBN[i], want)
		}
	}
}

// While the flusher is wedged against an unreachable upstream, cohort
// admissions are capped at a small multiple of flush K instead of buffering
// model-sized vectors without bound; beyond the cap the edge answers the
// retryable buffer-full 409 (retry header set, staleness counter uncharged)
// until the flusher catches up.
func TestEdgeAdmissionCappedWhileUpstreamDown(t *testing.T) {
	const nParams, nBN = 33, 2
	init := gridVec(nParams, 19)
	initBN := gridVec(nBN, 20)
	root := NewServer(init, initBN, 1)
	inner := root.Handler()
	var up atomic.Bool
	up.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !up.Load() {
			http.Error(w, "upstream down", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	e, edgeURL := startEdge(t, ts.URL, WithEdgeClientID(1000), WithEdgeFlush(2, 0))
	up.Store(false)
	// Two updates trip the K=2 flush: the batch commits locally and the
	// flusher wedges in the upstream retry loop.
	cohortRun(t, ts.Client(), edgeURL, []int{0, 1})
	awaitFn(t, "flusher wedged in retries", func() bool { return e.Stats().Upstream.Retries >= 1 })

	// The wedged flusher never drains the buffer, so admissions stop at the
	// manual-mode cap of 4*K = 8.
	round, base, baseBN := pullRawT(t, ts.Client(), edgeURL)
	for id := 2; id < 10; id++ {
		params := addVecs(base, gridDelta(nParams, id))
		bn := addVecs(baseBN, gridDelta(nBN, id))
		if st := pushRawT(t, ts.Client(), edgeURL, id, round, 1, params, bn); st != http.StatusOK {
			t.Fatalf("cohort client %d within the cap: status %d", id, st)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(Update{
		ClientID: 10, Round: round, Weight: 1,
		Params: addVecs(base, gridDelta(nParams, 10)),
		BN:     addVecs(baseBN, gridDelta(nBN, 10)),
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(edgeURL+"/update", contentTypeGob, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || resp.Header.Get(retryHeader) == "" {
		t.Fatalf("push beyond the cap: status %d, retry header %q; want retryable 409",
			resp.StatusCode, resp.Header.Get(retryHeader))
	}
	if got := e.inner.bufferedNow.Load(); got != 8 {
		t.Fatalf("buffer depth = %d at the cap, want 8", got)
	}
	if sr := e.Stats().Buffered.StaleRejected; sr != 0 {
		t.Fatalf("buffer-full rejection charged the staleness counter: %d", sr)
	}

	// Recovery: the wedged flush lands, the flusher drains, and the capped
	// client's retry is admissible again.
	up.Store(true)
	awaitFn(t, "flusher catching up after recovery", func() bool { return e.inner.bufferedNow.Load() == 0 })
}

// The age deadline runs from admission, not from when the flusher first
// looks at the buffer: an update admitted while the flusher was wedged in a
// long flush is pushed as soon as the flusher frees up once its age is
// already spent, instead of waiting a whole fresh flushAge from that point.
func TestEdgeAgeDeadlineRunsFromAdmission(t *testing.T) {
	const nParams = 33
	const flushAge = 800 * time.Millisecond
	init := gridVec(nParams, 21)
	root := NewServer(init, nil, 1)
	inner := root.Handler()
	var up atomic.Bool
	up.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !up.Load() {
			http.Error(w, "upstream down", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	e, edgeURL := startEdge(t, ts.URL, WithEdgeClientID(1000), WithEdgeFlush(2, flushAge))
	up.Store(false)
	cohortRun(t, ts.Client(), edgeURL, []int{0, 1}) // K-flush wedges against the dead upstream
	awaitFn(t, "flusher wedged in retries", func() bool { return e.Stats().Upstream.Retries >= 1 })
	cohortRun(t, ts.Client(), edgeURL, []int{2}) // admitted mid-wedge; its age clock starts now
	time.Sleep(flushAge + 200*time.Millisecond)  // let it age past flushAge while the flusher is stuck

	up.Store(true)
	awaitFn(t, "wedged flush landing", func() bool { return root.Round() >= 1 })
	t0 := time.Now()
	awaitFn(t, "age flush of the already-aged update", func() bool { return root.Round() >= 2 })
	if d := time.Since(t0); d > flushAge/2 {
		t.Fatalf("age flush took %v after the flusher freed up; the update's %v deadline had already passed at admission+%v",
			d, flushAge, flushAge)
	}
	if upSt := e.Stats().Upstream; upSt.FlushAge != 1 || upSt.FlushK != 1 {
		t.Fatalf("upstream stats: %+v, want one K flush and one age flush", upSt)
	}
}
