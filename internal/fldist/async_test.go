package fldist

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedprophet/internal/attack"
	"fedprophet/internal/nn"
)

// Tests of the buffered bounded-staleness aggregation mode
// (WithBufferedAggregation): admission-window semantics, the determinism
// pin across arrival orders / shard counts / GOMAXPROCS, the straggler
// regression (no training pass thrown away inside the window), a -race
// stress of pushes spanning the window against racing buffer commits, and
// the end-to-end convergence pin against the synchronous mode.

// asyncPushRec records one admitted contribution exactly as the server must
// fold it: the reconstructed full vectors, the base they are a delta
// against, and the staleness observed at admission.
type asyncPushRec struct {
	id        int
	baseRound int
	weight    float64
	staleness int
	params    []float64
	bn        []float64
	base      []float64
	baseBN    []float64
}

// refCommitAsync replays one buffer commit with the buffered fold's exact
// semantics and per-element operation sequence: contributions sorted by
// (baseRound, clientID), each a delta against its own base, weighted by
// weight/(1+staleness), applied on top of cur.
func refCommitAsync(cur []float64, recs []asyncPushRec, bn bool) []float64 {
	sorted := append([]asyncPushRec(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].baseRound != sorted[j].baseRound {
			return sorted[i].baseRound < sorted[j].baseRound
		}
		return sorted[i].id < sorted[j].id
	})
	acc := make([]float64, len(cur))
	total := 0.0
	for _, r := range sorted {
		vals, base := r.params, r.base
		if bn {
			vals, base = r.bn, r.baseBN
		}
		w := r.weight / float64(1+r.staleness)
		total += w
		for i, x := range vals {
			acc[i] += w * (x - base[i])
		}
	}
	out := make([]float64, len(cur))
	if total == 0 {
		copy(out, cur)
		return out
	}
	inv := 1.0 / total
	for i := range out {
		out[i] = cur[i] + acc[i]*inv
	}
	return out
}

// asyncFleet is the mixed fleet of the invariance scenario: raw and
// compressed clients at two codec parameter sets.
func asyncFleet() map[int]*synthClient {
	return map[int]*synthClient{
		0: {id: 0, weight: 1},
		1: {id: 1, weight: 2},
		2: {id: 2, weight: 3, comp: &Compression{Bits: 8, Chunk: 64}},
		3: {id: 3, weight: 4, comp: &Compression{Bits: 4, Chunk: 32}},
		4: {id: 4, weight: 5},
		5: {id: 5, weight: 6, comp: &Compression{Bits: 8, Chunk: 64}},
		6: {id: 6, weight: 7},
		7: {id: 7, weight: 8, comp: &Compression{Bits: 4, Chunk: 32}},
	}
}

// runAsyncScenario drives a fixed two-commit script whose second buffer
// mixes staleness 0 and 1 contributions, pushing that final group in the
// given order. It returns the final snapshot plus the recorded admitted
// multisets of both commits.
func runAsyncScenario(t *testing.T, initParams, initBN []float64, shards int, perm [4]int) (
	gotP, gotBN []float64, commit1, commit2 []asyncPushRec) {
	t.Helper()
	srv := NewServer(initParams, initBN, 1, withSegments(shards), WithBufferedAggregation(4, 2))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fleet := asyncFleet()

	record := func(c *synthClient, baseRound, staleness int) asyncPushRec {
		base, baseBN := c.base, c.baseBN
		status, dup, params, bn := c.push(t, ts, baseRound)
		if status != http.StatusOK || dup {
			t.Fatalf("client %d push base %d: status %d dup %v", c.id, baseRound, status, dup)
		}
		return asyncPushRec{id: c.id, baseRound: baseRound, weight: c.weight,
			staleness: staleness, params: params, bn: bn, base: base, baseBN: baseBN}
	}

	// Commit 1: clients 0..3 pull and push at round 0 (staleness 0). Clients
	// 4 and 5 pull round 0 *before* the commit so their later pushes are one
	// round stale.
	for _, id := range []int{0, 1, 2, 3, 4, 5} {
		if r := fleet[id].pull(t, ts); r != 0 {
			t.Fatalf("client %d pulled round %d, want 0", id, r)
		}
	}
	for _, id := range []int{0, 1, 2} {
		commit1 = append(commit1, record(fleet[id], 0, 0))
	}
	commit1 = append(commit1, record(fleet[3], 0, 0)) // fills the buffer
	if srv.Round() != 1 {
		t.Fatalf("round = %d after first full buffer, want 1", srv.Round())
	}

	// Commit 2: clients 6 and 7 pull the committed round; the buffer then
	// fills with {4, 5} at staleness 1 and {6, 7} at staleness 0, pushed in
	// the permuted order.
	for _, id := range []int{6, 7} {
		if r := fleet[id].pull(t, ts); r != 1 {
			t.Fatalf("client %d pulled round %d, want 1", id, r)
		}
	}
	group := map[int]struct{ baseRound, staleness int }{
		4: {0, 1}, 5: {0, 1}, 6: {1, 0}, 7: {1, 0},
	}
	recs := map[int]asyncPushRec{}
	for _, id := range perm[:] {
		g := group[id]
		recs[id] = record(fleet[id], g.baseRound, g.staleness)
	}
	for _, id := range []int{4, 5, 6, 7} {
		commit2 = append(commit2, recs[id])
	}
	if srv.Round() != 2 {
		t.Fatalf("round = %d after second full buffer, want 2", srv.Round())
	}
	gotP, gotBN = srv.Snapshot()
	return gotP, gotBN, commit1, commit2
}

// permutations4 enumerates all orderings of four elements.
func permutations4(elems [4]int) [][4]int {
	var out [][4]int
	var rec func(cur []int, rest []int)
	rec = func(cur, rest []int) {
		if len(rest) == 0 {
			var p [4]int
			copy(p[:], cur)
			out = append(out, p)
			return
		}
		for i := range rest {
			next := append(append([]int{}, rest[:i]...), rest[i+1:]...)
			rec(append(cur, rest[i]), next)
		}
	}
	rec(nil, elems[:])
	return out
}

// The headline determinism pin of buffered mode: the committed aggregate is
// a pure function of each buffer's admitted multiset — bit-identical across
// every arrival-order permutation of a mixed-staleness buffer, across shard
// counts, and across GOMAXPROCS — and equals the sequential reference fold
// in (baseRound, clientID) order with 1/(1+staleness) weights.
func TestAsyncArrivalOrderInvariance(t *testing.T) {
	initParams := synthVec(1003, 41) // odd length: uneven shards, ragged chunks
	initBN := synthVec(10, 42)

	check := func(t *testing.T, shards int, perm [4]int, wantP, wantBN []float64) ([]float64, []float64) {
		gotP, gotBN, c1, c2 := runAsyncScenario(t, initParams, initBN, shards, perm)
		// The aggregate must equal the reference fold replayed from the
		// recorded multisets.
		g1 := refCommitAsync(initParams, c1, false)
		g2 := refCommitAsync(g1, c2, false)
		b1 := refCommitAsync(initBN, c1, true)
		b2 := refCommitAsync(b1, c2, true)
		for i := range g2 {
			if gotP[i] != g2[i] {
				t.Fatalf("shards=%d perm=%v: params[%d] = %v, want reference %v", shards, perm, i, gotP[i], g2[i])
			}
		}
		for i := range b2 {
			if gotBN[i] != b2[i] {
				t.Fatalf("shards=%d perm=%v: bn[%d] = %v, want reference %v", shards, perm, i, gotBN[i], b2[i])
			}
		}
		// And bit-identical to every other run of the scenario.
		if wantP != nil {
			for i := range wantP {
				if gotP[i] != wantP[i] {
					t.Fatalf("shards=%d perm=%v: params[%d] = %v, want %v (not arrival/shard invariant)",
						shards, perm, i, gotP[i], wantP[i])
				}
			}
			for i := range wantBN {
				if gotBN[i] != wantBN[i] {
					t.Fatalf("shards=%d perm=%v: bn[%d] = %v, want %v (not arrival/shard invariant)",
						shards, perm, i, gotBN[i], wantBN[i])
				}
			}
		}
		return gotP, gotBN
	}

	group := [4]int{4, 5, 6, 7}
	wantP, wantBN := check(t, 4, group, nil, nil)
	// Every arrival order of the mixed-staleness buffer.
	for _, perm := range permutations4(group) {
		check(t, 4, perm, wantP, wantBN)
	}
	// Shard counts, forward and reversed arrival.
	reversed := [4]int{7, 6, 5, 4}
	for _, shards := range []int{1, 8} {
		check(t, shards, group, wantP, wantBN)
		check(t, shards, reversed, wantP, wantBN)
	}
	// GOMAXPROCS: single-P (inline fold) and multi-P (concurrent fold).
	for _, gmp := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(gmp)
		check(t, 4, reversed, wantP, wantBN)
		runtime.GOMAXPROCS(prev)
	}
}

// Admission-window semantics: in-window stale pushes are admitted (via the
// retained history base), retries stay idempotent across commits, the
// window evicts, and the /stats histogram attributes staleness correctly.
func TestAsyncStalenessWindowSemantics(t *testing.T) {
	initParams := synthVec(300, 51)
	initBN := synthVec(4, 52)
	srv := NewServer(initParams, initBN, 1, withSegments(4), WithBufferedAggregation(2, 1))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	a := &synthClient{id: 0, weight: 1}
	b := &synthClient{id: 1, weight: 2}
	c := &synthClient{id: 2, weight: 3}
	d := &synthClient{id: 3, weight: 4}
	e := &synthClient{id: 4, weight: 5, comp: &Compression{Bits: 8, Chunk: 64}}

	for _, cl := range []*synthClient{a, b, d, e} {
		if r := cl.pull(t, ts); r != 0 {
			t.Fatalf("client %d pulled round %d, want 0", cl.id, r)
		}
	}
	if st, dup, _, _ := a.push(t, ts, 0); st != http.StatusOK || dup {
		t.Fatalf("a push: %d dup=%v", st, dup)
	}
	// Same (client, base) again before the commit: idempotent duplicate.
	a2 := &synthClient{id: 0, weight: 1, base: a.base, baseBN: a.baseBN}
	if st, dup, _, _ := a2.push(t, ts, 0); st != http.StatusOK || !dup {
		t.Fatalf("a retry pre-commit: %d dup=%v, want 200 duplicate", st, dup)
	}
	if st, dup, _, _ := b.push(t, ts, 0); st != http.StatusOK || dup {
		t.Fatalf("b push: %d dup=%v", st, dup)
	}
	if srv.Round() != 1 {
		t.Fatalf("round = %d after full buffer, want 1", srv.Round())
	}
	// Retry after the commit: base round 0 is still inside the window, so
	// the dedup horizon must still answer duplicate, not double-count.
	a3 := &synthClient{id: 0, weight: 1, base: a.base, baseBN: a.baseBN}
	if st, dup, _, _ := a3.push(t, ts, 0); st != http.StatusOK || !dup {
		t.Fatalf("a retry post-commit: %d dup=%v, want 200 duplicate", st, dup)
	}
	// A compressed push one round stale: reconstructed against the retained
	// round-0 served base, admitted with staleness 1.
	if st, dup, _, _ := e.push(t, ts, 0); st != http.StatusOK || dup {
		t.Fatalf("stale-but-in-window compressed push: %d dup=%v", st, dup)
	}
	if r := c.pull(t, ts); r != 1 {
		t.Fatalf("c pulled round %d, want 1", r)
	}
	if st, dup, _, _ := c.push(t, ts, 1); st != http.StatusOK || dup {
		t.Fatalf("c push: %d dup=%v", st, dup)
	}
	if srv.Round() != 2 {
		t.Fatalf("round = %d after second buffer, want 2", srv.Round())
	}
	// d's base round 0 is now 2 > maxStaleness=1 rounds old: rejected.
	if st, _, _, _ := d.push(t, ts, 0); st != http.StatusConflict {
		t.Fatalf("out-of-window push: status %d, want 409", st)
	}
	// And the dedup horizon for round 0 was evicted with the window, so a
	// re-push of an old counted update is stale too, never re-counted.
	a4 := &synthClient{id: 0, weight: 1, base: a.base, baseBN: a.baseBN}
	if st, _, _, _ := a4.push(t, ts, 0); st != http.StatusConflict {
		t.Fatalf("evicted-horizon retry: status %d, want 409", st)
	}

	st := srv.Stats()
	if st.Buffered == nil || st.Buffered.BufferSize != 2 || st.Buffered.MaxStaleness != 1 {
		t.Fatalf("stats buffered section = %+v", st.Buffered)
	}
	if st.UpdatesRaw+st.UpdatesCompressed != 4 {
		t.Fatalf("counted %d+%d updates, want 4", st.UpdatesRaw, st.UpdatesCompressed)
	}
	if st.RoundsCompleted != 2 {
		t.Fatalf("RoundsCompleted = %d, want 2", st.RoundsCompleted)
	}
	if hist := st.Buffered.StalenessHist; len(hist) != 2 || hist[0] != 3 || hist[1] != 1 {
		t.Fatalf("staleness hist = %v, want [3 1]", hist)
	}
	if st.Buffered.StaleRejected != 2 {
		t.Fatalf("StaleRejected = %d, want 2", st.Buffered.StaleRejected)
	}
	if st.DuplicatesDropped != 2 {
		t.Fatalf("DuplicatesDropped = %d, want 2", st.DuplicatesDropped)
	}
}

// The straggler regression the buffered mode exists for: under the
// synchronous quorum a slow client's training pass is discarded (409 →
// retrain); inside the buffered staleness window it never is. The same
// client loop runs against both servers, and in both it pulls exactly once
// per push: every pull is followed by one push, counted, duplicate or stale.
// (The number of /round polls depends on timing and is not asserted.)
func TestAsyncStragglerNoWastedPasses(t *testing.T) {
	run := func(t *testing.T, async bool) (slowRetrains int, counted int64) {
		_, _, subs, build := testSetup(t, 3, 23)
		m := build()
		opts := []ServerOption{withSegments(4)}
		if async {
			opts = append(opts, WithBufferedAggregation(2, 8))
		}
		srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 2, opts...)
		var pulls atomic.Int64
		h := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet && r.URL.Path == "/model" {
				pulls.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		defer ts.Close()

		mk := func(id int) *Client {
			return &Client{
				ID: id, BaseURL: ts.URL, HTTP: ts.Client(),
				Model: build(), Subset: subs[id], Cfg: clientCfg(),
				Rng: rand.New(rand.NewSource(int64(70 + id))),
			}
		}
		fast0, fast1, slow := mk(0), mk(1), mk(2)
		// The straggler's "slowness" is deterministic: after training it
		// holds its (now stale) update until the fast pair has committed two
		// rounds, so its push is always 2 rounds behind.
		slow.testAfterTrain = func() {
			deadline := time.Now().Add(10 * time.Second)
			for srv.Round() < 2 && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
		}

		ctx := context.Background()
		var wg sync.WaitGroup
		errs := make([]error, 3)
		for i, cl := range []*Client{fast0, fast1} {
			wg.Add(1)
			go func(i int, cl *Client) {
				defer wg.Done()
				errs[i] = cl.RunRounds(ctx, 2, 0.05)
			}(i, cl)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[2] = slow.RunRounds(ctx, 1, 0.05)
		}()
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("client %d: %v", i, err)
			}
		}
		st := srv.Stats()
		counted = st.UpdatesRaw + st.UpdatesCompressed
		stale := int64(fast0.StaleRetrains + fast1.StaleRetrains + slow.StaleRetrains)
		if got, want := pulls.Load(), counted+int64(st.DuplicatesDropped)+stale; got != want {
			t.Errorf("buffered=%v: %d pulls, want counted %d + duplicates %d + stale retrains %d = %d",
				async, got, counted, st.DuplicatesDropped, stale, want)
		}
		return slow.StaleRetrains, counted
	}

	syncRetrains, _ := run(t, false)
	if syncRetrains < 1 {
		t.Fatalf("sync mode: straggler discarded %d training passes, want ≥ 1", syncRetrains)
	}
	asyncRetrains, counted := run(t, true)
	if asyncRetrains != 0 {
		t.Fatalf("async mode: straggler discarded %d training passes, want 0", asyncRetrains)
	}
	// Every client's every pass counted: 2+2 fast + 1 straggler.
	if counted != 5 {
		t.Fatalf("async mode counted %d updates, want 5", counted)
	}
}

// Concurrent pushes spanning the staleness window race buffer commits under
// the race detector: nothing may be lost, double-counted, or torn — every
// commit consumed exactly bufferK admitted updates.
func TestAsyncBufferCommitStress(t *testing.T) {
	const (
		clients  = 24
		attempts = 4
		bufferK  = 8
		maxStale = 2
	)
	initParams := synthVec(1200, 61)
	initBN := synthVec(6, 62)
	srv := NewServer(initParams, initBN, 1, withSegments(8), WithBufferedAggregation(bufferK, maxStale))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	codecs := []*Compression{nil, {Bits: 8, Chunk: 64}, {Bits: 4, Chunk: 128}, nil}
	var counted, dups, stale atomic.Int64
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := &synthClient{id: id, weight: float64(id%5 + 1), comp: codecs[id%len(codecs)]}
			rng := rand.New(rand.NewSource(int64(900 + id)))
			for i := 0; i < attempts; i++ {
				round := c.pull(t, ts)
				if id%4 == 3 {
					// Laggards hold their base across racing commits so some
					// pushes land stale-in-window and some past it.
					time.Sleep(time.Duration(1+rng.Intn(8)) * time.Millisecond)
				}
				status, dup, _, _ := c.push(t, ts, round)
				switch {
				case status == http.StatusOK && !dup:
					counted.Add(1)
				case status == http.StatusOK:
					dups.Add(1)
				case status == http.StatusConflict:
					stale.Add(1)
				default:
					t.Errorf("client %d: unexpected push status %d", id, status)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	st := srv.Stats()
	got := st.UpdatesRaw + st.UpdatesCompressed
	if got != counted.Load() {
		t.Fatalf("server counted %d updates, clients observed %d", got, counted.Load())
	}
	if int64(st.DuplicatesDropped) != dups.Load() {
		t.Fatalf("DuplicatesDropped = %d, clients observed %d", st.DuplicatesDropped, dups.Load())
	}
	if st.Buffered.StaleRejected != stale.Load() {
		t.Fatalf("StaleRejected = %d, clients observed %d", st.Buffered.StaleRejected, stale.Load())
	}
	// Commits consume exactly bufferK admitted updates each; the remainder
	// is still buffered.
	if want := got / bufferK; int64(st.RoundsCompleted) != want {
		t.Fatalf("RoundsCompleted = %d with %d counted updates, want %d", st.RoundsCompleted, got, want)
	}
	var histSum int64
	for s, n := range st.Buffered.StalenessHist {
		if s > maxStale && n != 0 {
			t.Fatalf("histogram bucket %d beyond the window: %v", s, st.Buffered.StalenessHist)
		}
		histSum += n
	}
	if histSum != got {
		t.Fatalf("staleness histogram sums to %d, want %d", histSum, got)
	}
}

// End-to-end convergence pin: a mixed raw/compressed fleet training the seed
// CNN through the buffered server reaches accuracy within tolerance of the
// synchronous quorum run on the same seed and training budget.
func TestAsyncConvergesNearSync(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed integration test")
	}
	const clients = 3
	_, test, subs, build := testSetup(t, clients, 9)
	comps := []*Compression{nil, {Bits: 8, Chunk: 256}, {Bits: 4, Chunk: 128}}

	run := func(t *testing.T, async bool) float64 {
		m := build()
		opts := []ServerOption{}
		if async {
			// A fleet-sized buffer: commits need no round barrier and
			// tolerate stale bases, but every client's data keeps flowing
			// into the aggregate — with this non-IID partition each client
			// is the sole holder of a class, so a smaller K would let
			// scheduling starve a class out of the model entirely rather
			// than reveal anything about the aggregation mode.
			opts = append(opts, WithBufferedAggregation(clients, 3))
		}
		srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), clients, opts...)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		// Equal training budgets: 6 synchronous quorum-3 rounds consume 18
		// passes, as do 6 buffered commits at K=3. The async fleet runs
		// until the commit budget is met and is then released by ctx — a
		// buffered client with no peers left pushing would otherwise wait
		// for a commit that cannot come.
		const syncRounds = 6
		const asyncCommits = 6
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if async {
			go func() {
				for srv.RoundsCompleted() < asyncCommits && ctx.Err() == nil {
					time.Sleep(5 * time.Millisecond)
				}
				cancel()
			}()
		}

		var wg sync.WaitGroup
		errs := make([]error, clients)
		for id := 0; id < clients; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				c := &Client{
					ID: id, BaseURL: ts.URL, HTTP: ts.Client(),
					Model: build(), Subset: subs[id], Cfg: clientCfg(),
					Rng:         rand.New(rand.NewSource(int64(100 + id))),
					Compression: comps[id],
				}
				n := syncRounds
				if async {
					n = 1 << 20 // effectively unbounded; ctx ends the run
				}
				errs[id] = c.RunRounds(ctx, n, 0.05)
			}(id)
		}
		wg.Wait()
		for id, err := range errs {
			if err != nil && !async {
				t.Fatalf("client %d: %v", id, err)
			}
			_ = id // async clients end with ctx.Canceled by design
		}
		if async && srv.RoundsCompleted() < asyncCommits {
			t.Fatalf("async run committed %d rounds, want ≥ %d", srv.RoundsCompleted(), asyncCommits)
		}

		params, bn := srv.Snapshot()
		final := build()
		nn.ImportParams(final, params)
		nn.ImportBNStats(final, bn)
		return attack.CleanAccuracy(final, test, 16)
	}

	syncAcc := run(t, false)
	asyncAcc := run(t, true)
	t.Logf("clean accuracy: sync %.3f, async %.3f", syncAcc, asyncAcc)
	if asyncAcc < syncAcc-0.15 {
		t.Fatalf("async accuracy %.3f more than 0.15 below sync %.3f", asyncAcc, syncAcc)
	}
	if asyncAcc <= 0.5 {
		t.Fatalf("async federation failed to learn: accuracy %v", asyncAcc)
	}
}
