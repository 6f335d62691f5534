package fldist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedprophet/internal/nn"
	"fedprophet/internal/quant"
)

// Recovery determinism: a federation that crashes and recovers must end,
// after the surviving clients finish their pushes, on the bit-identical
// model a never-crashed run produces from the same admission sequence. This
// file pins that across aggregation modes and shard counts, plus the live
// handoff path, the edge restart re-push (deduplicated exactly once
// upstream), and the shutdown warning contract for abandoned buffered work.

// recoverT recovers the server in dir for a test: its served segments and
// fold ranges pinned to segs (0 tracks GOMAXPROCS), its warnings on the test
// log.
func recoverT(t testing.TB, dir string, segs int) (*Server, error) {
	s, err := RecoverServer(dir)
	if err == nil {
		s.segs, s.warnf = segs, t.Logf
	}
	return s, err
}

// fedPush runs one scripted client: pull the current model, train (perturb),
// push. Clients push exactly once, so their update bytes depend only on the
// pulled base — a recovered server serving the bit-identical base therefore
// receives the bit-identical update.
func fedPush(t *testing.T, ts *httptest.Server, id int) {
	t.Helper()
	c := &synthClient{id: id, weight: float64(id%4 + 1)}
	if id%3 == 2 {
		c.comp = &Compression{Bits: 8, Chunk: 64}
	}
	r := c.pull(t, ts)
	if st, dup, _, _ := c.push(t, ts, r); st != http.StatusOK || dup {
		t.Fatalf("client %d push: status %d dup %v", id, st, dup)
	}
}

// TestRecoverBitIdentical crashes a WAL-backed federation mid-run — between
// commits, at a commit boundary, mid-quorum — recovers it, finishes the
// scripted pushes, and demands the final model be bit-identical to the
// never-crashed reference. Both modes replay their logged admissions, so the
// federation resumes at the crash point: no accepted push is pushed again.
func TestRecoverBitIdentical(t *testing.T) {
	const nPush = 9 // 3 commits of 3 in both modes
	initP, initBN := synthVec(257, 71), synthVec(5, 72)

	mkServer := func(mode string, shards int, opts ...ServerOption) *Server {
		if mode == "buffered" {
			opts = append(opts, WithBufferedAggregation(3, 2))
			return NewServer(initP, initBN, 1, append(opts, withSegments(shards))...)
		}
		return NewServer(initP, initBN, 3, append(opts, withSegments(shards))...)
	}

	// The never-crashed references, one per mode (shard count cannot matter —
	// that is pinned elsewhere — so one reference each suffices).
	refs := map[string][2][]float64{}
	for _, mode := range []string{"buffered", "sync"} {
		srv := mkServer(mode, 2)
		ts := httptest.NewServer(srv.Handler())
		for id := 0; id < nPush; id++ {
			fedPush(t, ts, id)
		}
		ts.Close()
		if srv.Round() != 3 {
			t.Fatalf("%s reference ended at round %d, want 3", mode, srv.Round())
		}
		p, bn := srv.Snapshot()
		refs[mode] = [2][]float64{p, bn}
	}

	for _, mode := range []string{"buffered", "sync"} {
		for _, shards := range []int{1, 4} {
			for _, crashAt := range []int{2, 4, 7} {
				t.Run(fmt.Sprintf("%s/shards=%d/crash=%d", mode, shards, crashAt), func(t *testing.T) {
					dir := t.TempDir()
					srv := mkServer(mode, shards, WithWAL(dir), withWarnf(t.Logf))
					ts := httptest.NewServer(srv.Handler())
					for id := 0; id < crashAt; id++ {
						fedPush(t, ts, id)
					}
					// Crash: the process dies with the flock released and the
					// log exactly as fsync/page cache left it. (The torn-tail
					// variants of this moment are the truncation sweep's job.)
					ts.Close()
					if err := srv.Close(); err != nil {
						t.Fatal(err)
					}

					rec, err := recoverT(t, dir, shards)
					if err != nil {
						t.Fatalf("recover: %v", err)
					}
					defer rec.Close()
					ts2 := httptest.NewServer(rec.Handler())
					defer ts2.Close()

					// Recovery replayed every admission the WAL held, so the
					// next push is exactly the next scripted one.
					for id := crashAt; id < nPush; id++ {
						fedPush(t, ts2, id)
					}

					if rec.Round() != 3 {
						t.Fatalf("recovered run ended at round %d, want 3", rec.Round())
					}
					p, bn := rec.Snapshot()
					want := refs[mode]
					for i := range want[0] {
						if p[i] != want[0][i] {
							t.Fatalf("params[%d] = %v, want %v (not bit-identical to the never-crashed run)", i, p[i], want[0][i])
						}
					}
					for i := range want[1] {
						if bn[i] != want[1][i] {
							t.Fatalf("bn[%d] = %v, want %v", i, bn[i], want[1][i])
						}
					}
				})
			}
		}
	}
}

// TestSyncRecoveryReleasesWaitingClients pins the synchronous-mode crash
// contract for real clients. A client whose push got its 200 never pushes it
// again: it waits for the round to move past it. With the quorum equal to
// the fleet, recovery must therefore bring that push back, or the round can
// never fill. Client 0 pushes and waits; the server crashes and recovers
// behind a stable front address; client 1 then pushes, and the round must
// advance, releasing client 0, before the deadline. In the "hang-up gap"
// case the front hangs up on every request between the crash and the swap
// to the recovered server, as a dead process's port does, and client 0's
// round wait must outlast that gap.
func TestSyncRecoveryReleasesWaitingClients(t *testing.T) {
	for _, gap := range []bool{false, true} {
		name := "stable address"
		if gap {
			name = "hang-up gap"
		}
		t.Run(name, func(t *testing.T) { syncRecoveryReleasesWaitingClients(t, gap) })
	}
}

func syncRecoveryReleasesWaitingClients(t *testing.T, gap bool) {
	_, _, _, build := testSetup(t, 3, 3)
	m := build()
	dir := t.TempDir()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 2, WithWAL(dir), withWarnf(t.Logf))
	var live atomic.Pointer[Server]
	live.Store(srv)
	// A client polls /round only once a push of its got its 200.
	waiting := make(chan struct{})
	var once sync.Once
	var down atomic.Bool
	var hungUp atomic.Int64
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			hungUp.Add(1)
			hangUp(w)
			return
		}
		if r.URL.Path == "/round" {
			once.Do(func() { close(waiting) })
		}
		live.Load().Handler().ServeHTTP(w, r)
	}))
	defer front.Close()
	clients := []*Client{
		mkClient(t, front, 0, 10, &Compression{Bits: 8, Chunk: 64}),
		mkClient(t, front, 1, 11, nil),
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	errs := make(chan error, len(clients))
	run := func(c *Client) { errs <- c.RunRounds(ctx, 2, 0.05) }
	go run(clients[0])
	// Client 0 got its 200 and waits on the quorum. Crash: the process dies
	// with the WAL released.
	select {
	case <-waiting:
	case <-ctx.Done():
		t.Fatal("client 0 never pushed")
	}
	down.Store(gap)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if gap {
		// Client 0's round wait meets the dead port before the restart.
		for hungUp.Load() == 0 {
			select {
			case err := <-errs:
				t.Fatalf("client 0 stopped in the restart gap: %v", err)
			case <-ctx.Done():
				t.Fatal("client 0 never polled during the restart gap")
			case <-time.After(time.Millisecond):
			}
		}
	}
	rec, err := recoverT(t, dir, 0)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rec.Close()
	live.Store(rec)
	down.Store(false)

	go run(clients[1])
	for range clients {
		if err := <-errs; err != nil {
			t.Fatalf("client: %v", err)
		}
	}
	if rec.Round() != 2 {
		t.Fatalf("recovered server at round %d, want 2", rec.Round())
	}
}

// A server restarted without a WAL has lost every push it had admitted, so a
// client that got its 200 and waits on the quorum would wait for good. The
// fresh instance answers /round under a new server ID, and the waiting client
// re-sends its accepted push once: client 0 pushes and waits, a fresh server
// (no WAL) is swapped in behind the front, client 1 pushes, and both must
// finish their two rounds.
func TestRestartWithoutWALReleasesWaitingClients(t *testing.T) {
	_, _, _, build := testSetup(t, 3, 3)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 2, withWarnf(t.Logf))
	var live atomic.Pointer[Server]
	live.Store(srv)
	waiting := make(chan struct{})
	var once sync.Once
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/round" {
			once.Do(func() { close(waiting) })
		}
		live.Load().Handler().ServeHTTP(w, r)
	}))
	defer front.Close()
	clients := []*Client{
		mkClient(t, front, 0, 10, &Compression{Bits: 8, Chunk: 64}),
		mkClient(t, front, 1, 11, nil),
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	errs := make(chan error, len(clients))
	run := func(c *Client) { errs <- c.RunRounds(ctx, 2, 0.05) }
	go run(clients[0])
	select {
	case <-waiting:
	case <-ctx.Done():
		t.Fatal("client 0 never pushed")
	}
	srv.Close()
	fresh := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 2, withWarnf(t.Logf))
	live.Store(fresh)

	go run(clients[1])
	for range clients {
		if err := <-errs; err != nil {
			t.Fatalf("client: %v", err)
		}
	}
	if fresh.Round() != 2 {
		t.Fatalf("restarted server at round %d, want 2", fresh.Round())
	}
}

// A server restarted without a WAL at a round before the lost push answers
// its re-send with a stale 409, and RunRounds pulls and trains again without
// counting the lost round. Client 1 fills round 0 on the
// first server; client 0 pushes round 0 (the commit) and round 1, then a
// fresh server at round 0 is swapped in while client 0 waits on round 1.
func TestRestartWithoutWALRetrainsStalePush(t *testing.T) {
	_, _, _, build := testSetup(t, 3, 3)
	m := build()
	newSrv := func() *Server { return NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 2, withWarnf(t.Logf)) }
	first, fresh := newSrv(), newSrv()
	var live atomic.Pointer[Server]
	live.Store(first)
	var pushes atomic.Int64
	swapped := make(chan struct{})
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/update":
			pushes.Add(1)
		case r.URL.Path == "/round" && pushes.Load() == 2 && live.CompareAndSwap(first, fresh):
			close(swapped)
		}
		live.Load().Handler().ServeHTTP(w, r)
	}))
	defer front.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	pushDirect := func(s *Server) {
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		c := mkClient(t, ts, 1, 11, nil)
		r, err := c.Pull(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Push(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	pushDirect(first)
	c0 := mkClient(t, front, 0, 10, nil)
	errc := make(chan error, 1)
	go func() { errc <- c0.RunRounds(ctx, 3, 0.05) }()
	select {
	case <-swapped:
	case err := <-errc:
		t.Fatalf("client 0 stopped before the restart: %v", err)
	}
	pushDirect(fresh)
	if err := <-errc; err != nil {
		t.Fatalf("client 0: %v", err)
	}
	if c0.StaleRetrains != 1 || fresh.Round() != 1 {
		t.Fatalf("client 0 retrained %d stale rounds, restarted server at round %d; want 1 and 1",
			c0.StaleRetrains, fresh.Round())
	}
}

// The log keeps only the staleness window. Once the paced fsync has sealed
// the last commit, and after Close, the directory holds wal.lock and the
// window+1 newest segments, nothing more. Recovery from them, and from the
// log's whole recorded history, holds at most window+1 commits at once and
// only the admissions inside the newest one's window, lands bit-identically
// on the last commit, and folds the replayed buffer exactly like the live
// server, which never crashed.
func TestWALHoldsOnlyWindow(t *testing.T) {
	const commits, window, extra = 12, 2, 2 // walScript's buffered window is 2
	live, _, _ := walScript(t, t.TempDir(), true, commits, extra+1, 0)
	if live.Round() != commits+1 {
		t.Fatalf("live server at round %d, want %d", live.Round(), commits+1)
	}
	liveP, liveBN := live.Snapshot()
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	history := recordWAL(t)
	pruned := t.TempDir()
	srv, refP, refBN := walScript(t, pruned, true, commits, extra, 0)
	var want []string // in os.ReadDir's order: by name
	for r := commits - window; r <= commits; r++ {
		want = append(want, walSegName(r))
	}
	want = append(want, walLockName)
	onDisk := func() []string {
		entries, err := os.ReadDir(pruned)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	for deadline := time.Now().Add(5 * time.Second); !slices.Equal(onDisk(), want); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("live server's WAL dir holds %v, want %v once the paced fsync ran", onDisk(), want)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := onDisk(); !slices.Equal(got, want) {
		t.Fatalf("closed WAL dir holds %v, want %v", got, want)
	}
	whole, log := t.TempDir(), history()
	writeLogDir(t, whole, log, int64(len(log)))

	for _, dir := range []string{pruned, whole} {
		st, err := scanWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		// The commit slice is allocated at the window's size and never
		// grows, so the scan never held more than window+1 commits at once.
		if len(st.commits) != window+1 || cap(st.commits) != window+1 {
			t.Fatalf("scan holds %d commits (capacity %d), want the window's %d",
				len(st.commits), cap(st.commits), window+1)
		}
		if r := st.commits[window].round; r != commits {
			t.Fatalf("newest scanned commit is round %d, want %d", r, commits)
		}
		if want := window*walTestBufferK + extra; len(st.admits) != want {
			t.Fatalf("scan holds %d admissions, want the window's %d", len(st.admits), want)
		}
		for _, a := range st.admits {
			if a.admitRound < commits-window {
				t.Fatalf("scan kept an admission of round %d, outside the window", a.admitRound)
			}
		}

		rec, err := recoverT(t, dir, 0)
		if err != nil {
			t.Fatalf("recover %s: %v", dir, err)
		}
		p, bn := rec.Snapshot()
		if !bitsEqualT(p, refP[commits]) || !bitsEqualT(bn, refBN[commits]) {
			t.Fatalf("recovery of %s is not bit-identical to round %d", dir, commits)
		}
		ts := httptest.NewServer(rec.Handler())
		// The last push fills the replayed buffer: the commit folds the
		// replayed admissions too.
		c := &synthClient{id: commits*walTestBufferK + extra, weight: 2}
		if r := c.pull(t, ts); r != commits {
			t.Fatalf("pulled round %d, want %d", r, commits)
		}
		if st, dup, _, _ := c.push(t, ts, commits); st != http.StatusOK || dup {
			t.Fatalf("push: status %d dup %v", st, dup)
		}
		ts.Close()
		if rec.Round() != commits+1 {
			t.Fatalf("recovery of %s at round %d after the buffer filled, want %d", dir, rec.Round(), commits+1)
		}
		p, bn = rec.Snapshot()
		rec.Close()
		if !bitsEqualT(p, liveP) || !bitsEqualT(bn, liveBN) {
			t.Fatalf("recovery of %s committed a different model than the live server", dir)
		}
	}
}

// bitsEqualT reports whether two vectors are equal bit for bit.
func bitsEqualT(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Live handoff: a successor blocks on the incumbent's flock and takes over
// at its exact round the moment the incumbent closes — no state lost, no
// double ownership, and the federation keeps moving under the successor.
func TestHandoff(t *testing.T) {
	dir := t.TempDir()
	srv, refP, _ := walScript(t, dir, true, 2, 0, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	type result struct {
		s   *Server
		err error
	}
	ch := make(chan result, 1)
	go func() {
		s, err := Handoff(ctx, dir)
		if err == nil {
			s.segs, s.warnf = 4, t.Logf
		}
		ch <- result{s, err}
	}()

	// The incumbent is live and holds the flock: the successor must wait.
	select {
	case r := <-ch:
		if r.s != nil {
			r.s.Close()
		}
		t.Fatalf("handoff completed while the incumbent was live (err=%v)", r.err)
	case <-time.After(150 * time.Millisecond):
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var suc *Server
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("handoff: %v", r.err)
		}
		suc = r.s
	case <-time.After(10 * time.Second):
		t.Fatal("handoff did not complete after the incumbent closed")
	}
	defer suc.Close()

	if suc.Round() != 2 {
		t.Fatalf("successor at round %d, want 2", suc.Round())
	}
	p, _ := suc.Snapshot()
	for i := range refP[2] {
		if p[i] != refP[2][i] {
			t.Fatalf("successor params[%d] = %v, want %v", i, p[i], refP[2][i])
		}
	}

	// The federation continues under the successor.
	ts := httptest.NewServer(suc.Handler())
	defer ts.Close()
	for id := 100; id < 100+walTestBufferK; id++ {
		fedPush(t, ts, id)
	}
	if suc.Round() != 3 {
		t.Fatalf("successor stuck at round %d after a full buffer, want 3", suc.Round())
	}
}

// edgeRepushFixture runs a cohort of grid clients against a WAL-backed edge
// whose flusher is idle (K too high, age disabled), then commits and parks
// the batch by hand — the state every edge-crash scenario starts from.
// It returns the upstream server, the live edge, its context cancel, and the
// edge WAL dir. Grid values keep every fold exact, so upstream snapshots
// compare bitwise.
func edgeRepushFixture(t *testing.T, dir string) (up *Server, ts *httptest.Server, e *Edge, cancel context.CancelFunc) {
	t.Helper()
	up = NewServer(gridVec(64, 1), gridVec(8, 2), 1,
		withSegments(2), WithBufferedAggregation(1, 2))
	ts = httptest.NewServer(up.Handler())
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	e = NewEdge(ts.URL,
		WithEdgeClientID(4096), WithEdgeFlush(8, 0), WithEdgeWAL(dir))
	if err := e.Start(ctx); err != nil {
		cancel()
		t.Fatalf("edge start: %v", err)
	}
	ets := httptest.NewServer(e.Handler())
	cohortRun(t, ets.Client(), ets.URL, []int{1, 2})
	ets.Close()
	return up, ts, e, cancel
}

// edgeControlSnapshot is the reference: the same cohort through the same
// edge, pushed cleanly (no crash), and the upstream model it yields.
func edgeControlSnapshot(t *testing.T) ([]float64, []float64) {
	t.Helper()
	up := NewServer(gridVec(64, 1), gridVec(8, 2), 1,
		withSegments(2), WithBufferedAggregation(1, 2))
	ts := httptest.NewServer(up.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := NewEdge(ts.URL, WithEdgeClientID(4096), WithEdgeFlush(8, 0))
	if err := e.Start(ctx); err != nil {
		t.Fatalf("control edge start: %v", err)
	}
	ets := httptest.NewServer(e.Handler())
	cohortRun(t, ets.Client(), ets.URL, []int{1, 2})
	ets.Close()
	if err := e.Drain(context.Background()); err != nil {
		t.Fatalf("control drain: %v", err)
	}
	cancel()
	<-e.done
	if up.Round() != 1 {
		t.Fatalf("control upstream at round %d, want 1", up.Round())
	}
	p, bn := up.Snapshot()
	return p, bn
}

// An edge that crashes AFTER its push was acknowledged but BEFORE it cleared
// the durable slot — the unavoidable window of the park-push-clear protocol.
// The restarted edge re-pushes the recovered batch under its original dedup
// identity and the upstream drops it as a duplicate: the cohort's work lands
// exactly once, bit-identically to the clean run.
func TestEdgeRestartRepushDeduped(t *testing.T) {
	wantP, wantBN := edgeControlSnapshot(t)
	dir := t.TempDir()
	up, ts, e, cancel := edgeRepushFixture(t, dir)

	e.flushMu.Lock()
	batch, ok := e.inner.commitNow()
	if !ok {
		e.flushMu.Unlock()
		t.Fatal("nothing buffered to commit")
	}
	e.parkBatchLocked(batch)
	slot, err := os.ReadFile(filepath.Join(dir, edgeWALName))
	if err != nil {
		e.flushMu.Unlock()
		t.Fatalf("parked slot not durable: %v", err)
	}
	if err := e.pushBatchLocked(context.Background(), false); err != nil {
		e.flushMu.Unlock()
		t.Fatalf("push: %v", err)
	}
	e.flushMu.Unlock()
	// The push landed (upstream committed) and the slot was cleared. Put the
	// pre-push slot bytes back: the on-disk image of a crash inside the
	// acknowledged-but-not-cleared window.
	if err := os.WriteFile(filepath.Join(dir, edgeWALName), slot, 0o644); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-e.done

	if up.Round() != 1 {
		t.Fatalf("upstream at round %d after the first push, want 1", up.Round())
	}
	dupsBefore := up.Stats().DuplicatesDropped

	// The restarted edge: same identity, same WAL dir. Start recovers the
	// parked batch and re-pushes it before anything else.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	e2 := NewEdge(ts.URL, WithEdgeClientID(4096), WithEdgeFlush(8, 0), WithEdgeWAL(dir))
	if err := e2.Start(ctx2); err != nil {
		t.Fatalf("restarted edge start: %v", err)
	}
	defer func() { cancel2(); <-e2.done }()

	if got := up.Stats().DuplicatesDropped; got != dupsBefore+1 {
		t.Fatalf("upstream dropped %d duplicates, want %d — the re-push was not deduplicated", got, dupsBefore+1)
	}
	if up.Round() != 1 {
		t.Fatalf("upstream advanced to round %d on a duplicate re-push", up.Round())
	}
	p, bn := up.Snapshot()
	for i := range wantP {
		if p[i] != wantP[i] {
			t.Fatalf("params[%d] = %v, want %v — the cohort batch did not land exactly once", i, p[i], wantP[i])
		}
	}
	for i := range wantBN {
		if bn[i] != wantBN[i] {
			t.Fatalf("bn[%d] = %v, want %v", i, bn[i], wantBN[i])
		}
	}
	// The acknowledged re-push cleared the slot for good.
	if _, ok, err := readEdgeWAL(dir); err != nil || ok {
		t.Fatalf("slot after deduped re-push: ok=%v err=%v, want empty", ok, err)
	}
	// The batch-ID cursor came back from the slot: the next batch must draw a
	// fresh dedup identity, not reuse the recovered one.
	e2.flushMu.Lock()
	nextID := e2.nextPushIDLocked()
	e2.flushMu.Unlock()
	if nextID != 4096+1 {
		t.Fatalf("next push ID %d, want %d (pushSeq cursor not restored)", nextID, 4096+1)
	}
}

// An edge that crashes BEFORE the push: the parked batch survives in the
// slot, the restarted edge pushes it, and the cohort's work lands exactly
// once — bit-identical to the clean run, with no duplicate involved.
func TestEdgeCrashBeforePushRepushesOnce(t *testing.T) {
	wantP, wantBN := edgeControlSnapshot(t)
	dir := t.TempDir()
	up, ts, e, cancel := edgeRepushFixture(t, dir)

	e.flushMu.Lock()
	batch, ok := e.inner.commitNow()
	if !ok {
		e.flushMu.Unlock()
		t.Fatal("nothing buffered to commit")
	}
	e.parkBatchLocked(batch)
	e.flushMu.Unlock()
	// Crash before the push ever happens.
	cancel()
	<-e.done
	if up.Round() != 0 {
		t.Fatalf("upstream at round %d before any push, want 0", up.Round())
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	e2 := NewEdge(ts.URL, WithEdgeClientID(4096), WithEdgeFlush(8, 0), WithEdgeWAL(dir))
	if err := e2.Start(ctx2); err != nil {
		t.Fatalf("restarted edge start: %v", err)
	}
	defer func() { cancel2(); <-e2.done }()

	if up.Round() != 1 {
		t.Fatalf("upstream at round %d after recovery push, want 1", up.Round())
	}
	if d := up.Stats().DuplicatesDropped; d != 0 {
		t.Fatalf("%d duplicates dropped, want 0", d)
	}
	p, bn := up.Snapshot()
	for i := range wantP {
		if p[i] != wantP[i] {
			t.Fatalf("params[%d] = %v, want %v", i, p[i], wantP[i])
		}
	}
	for i := range wantBN {
		if bn[i] != wantBN[i] {
			t.Fatalf("bn[%d] = %v, want %v", i, bn[i], wantBN[i])
		}
	}
	if _, ok, err := readEdgeWAL(dir); err != nil || ok {
		t.Fatalf("slot after recovery push: ok=%v err=%v, want empty", ok, err)
	}
}

// The shutdown warning contract: closing a server that still buffers
// unaggregated client work says so, says whether the work is recoverable,
// and — with a WAL — is telling the truth: RecoverServer replays exactly
// those updates.
func TestCloseWarnsAboutAbandonedUpdates(t *testing.T) {
	initP, initBN := synthVec(65, 71), synthVec(5, 72)
	capture := func(warns *[]string) ServerOption {
		return withWarnf(func(f string, a ...any) { *warns = append(*warns, fmt.Sprintf(f, a...)) })
	}
	oneAdmit := func(srv *Server) {
		ts := httptest.NewServer(srv.Handler())
		fedPush(t, ts, 0)
		ts.Close()
	}

	// With a WAL, in either mode: recoverable, and recovery proves it.
	for _, tc := range []struct {
		name   string
		quorum int
		opts   []ServerOption
	}{
		{"buffered with WAL: recoverable, and recovery proves it", 1, []ServerOption{WithBufferedAggregation(3, 2)}},
		{"sync with WAL: recoverable", 3, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var warns []string
			srv := NewServer(initP, initBN, tc.quorum, append(tc.opts, WithWAL(dir), capture(&warns))...)
			oneAdmit(srv)
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			if len(warns) != 1 || !strings.Contains(warns[0], "1 buffered update(s)") || !strings.Contains(warns[0], "all logged") {
				t.Fatalf("warnings = %q, want one mentioning the count and full WAL coverage", warns)
			}
			// A recovered server counts the replayed update as logged: /stats
			// reads it, and its own Close warns the same way.
			rec, err := recoverT(t, dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			warns = nil
			rec.warnf = func(f string, a ...any) { warns = append(warns, fmt.Sprintf(f, a...)) }
			if got := rec.Stats().WAL.PendingAdmits; got != 1 {
				t.Fatalf("recovered server reports %d pending admits, want the 1 it replayed", got)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			if len(warns) != 1 || !strings.Contains(warns[0], "1 buffered update(s)") || !strings.Contains(warns[0], "all logged") {
				t.Fatalf("recovered server's close warnings = %q, want one mentioning full WAL coverage", warns)
			}
			// The promise in the warning: recovery replays the abandoned
			// update, so two more pushes complete the buffer (or quorum) of
			// three.
			if rec, err = recoverT(t, dir, 0); err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			ts := httptest.NewServer(rec.Handler())
			defer ts.Close()
			fedPush(t, ts, 1)
			fedPush(t, ts, 2)
			if rec.Round() != 1 {
				t.Fatalf("recovered server at round %d after completing the buffer, want 1", rec.Round())
			}
		})
	}

	t.Run("buffered without WAL: lost", func(t *testing.T) {
		var warns []string
		srv := NewServer(initP, initBN, 1, WithBufferedAggregation(3, 2), capture(&warns))
		oneAdmit(srv)
		srv.Close()
		if len(warns) != 1 || !strings.Contains(warns[0], "no WAL") {
			t.Fatalf("warnings = %q, want one saying the update is lost without a WAL", warns)
		}
	})

	t.Run("clean close: silent", func(t *testing.T) {
		var warns []string
		srv := NewServer(initP, initBN, 1,
			WithBufferedAggregation(3, 2), WithWAL(t.TempDir()), capture(&warns))
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if len(warns) != 0 {
			t.Fatalf("clean close warned: %q", warns)
		}
	})
}

// TestRecoverStaleCompressedAdmit pins the frame-replay path that rebuilds a
// history round's served base. A compressed client pulls, the federation
// commits past its base round, and its stale push is admitted (within the
// staleness window) just before the process dies — so the WAL holds an
// uncommitted compressed admission whose base round is no longer the head.
// Recovery must re-run the handler's decode against the identical served
// base, rebuilt from the base round's logged snapshot and entry residual
// (getServed on a retained snapshot), and the finished federation must
// land bit-identical to a never-crashed run of the same script.
func TestRecoverStaleCompressedAdmit(t *testing.T) {
	initP, initBN := synthVec(257, 81), synthVec(5, 82)
	mk := func(opts ...ServerOption) *Server {
		// Commit every 2 admissions; tolerate staleness 3.
		return NewServer(initP, initBN, 1, append(opts, WithBufferedAggregation(2, 3))...)
	}

	// script drives the federation to the moment of the crash: the stale
	// client pulls at round 0, two rounds commit under it, then its push —
	// staleness 2 — is admitted into round 2's still-open buffer.
	script := func(t *testing.T, ts *httptest.Server) *synthClient {
		stale := &synthClient{id: 100, weight: 2, comp: &Compression{Bits: 8, Chunk: 64}}
		if r := stale.pull(t, ts); r != 0 {
			t.Fatalf("stale client pulled round %d, want 0", r)
		}
		for id := 0; id < 4; id++ {
			fedPush(t, ts, id)
		}
		if st, dup, _, _ := stale.push(t, ts, 0); st != http.StatusOK || dup {
			t.Fatalf("stale push: status %d dup %v", st, dup)
		}
		return stale
	}
	// finish completes round 2 after the crash (or never-crash): one more
	// admission reaches the commit threshold.
	finish := func(t *testing.T, ts *httptest.Server) {
		fedPush(t, ts, 4)
	}

	// Never-crashed reference.
	ref := mk()
	ts := httptest.NewServer(ref.Handler())
	script(t, ts)
	finish(t, ts)
	ts.Close()
	if ref.Round() != 3 {
		t.Fatalf("reference ended at round %d, want 3", ref.Round())
	}
	refP, refBN := ref.Snapshot()
	ref.Close()

	// Crashed run: die with the stale compressed admission uncommitted.
	dir := t.TempDir()
	srv := mk(WithWAL(dir), withWarnf(t.Logf))
	ts = httptest.NewServer(srv.Handler())
	script(t, ts)
	ts.Close()
	if srv.Round() != 2 {
		t.Fatalf("crashed at round %d, want 2 (stale admit buffered)", srv.Round())
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := recoverT(t, dir, 0)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rec.Close()
	ts2 := httptest.NewServer(rec.Handler())
	defer ts2.Close()
	finish(t, ts2)

	if rec.Round() != 3 {
		t.Fatalf("recovered run ended at round %d, want 3", rec.Round())
	}
	p, bn := rec.Snapshot()
	for i := range refP {
		if p[i] != refP[i] {
			t.Fatalf("params[%d] = %v, want %v (stale frame replay diverged)", i, p[i], refP[i])
		}
	}
	for i := range refBN {
		if bn[i] != refBN[i] {
			t.Fatalf("bn[%d] = %v, want %v", i, bn[i], refBN[i])
		}
	}
}

// TestRecoverRefusesOutOfRangeAdmit pins that WAL replay admits nothing the
// live handler would refuse: a CRC-valid admission whose raw BN frame holds
// +Inf, a raw params frame holding NaN, a logged chain base holding NaN or
// one value short, a header weight outside [2^-64, 2^64], and a bad
// envelope magic or version each fail recovery with ErrWAL instead of
// parking a value the next commit would publish.
func TestRecoverRefusesOutOfRangeAdmit(t *testing.T) {
	log, admits := admitLog(t, true)
	if srv, err := recoverLog(t, log); err != nil {
		t.Fatalf("unmutated log: %v", err)
	} else {
		srv.Close()
	}
	nanParams := func(a *walAdmit) {
		f, bnFrame, err := quant.DecodeFirst(a.body[updateHeaderLen:])
		if err != nil || !f.IsRaw() {
			t.Fatalf("admission 0 is not a raw push: %v", err)
		}
		f.Raw[5] = math.NaN()
		a.body = append(append(a.body[:updateHeaderLen:updateHeaderLen], quant.EncodeRaw(f.Raw)...), bnFrame...)
	}
	header := func(off int, b ...byte) func(a *walAdmit) {
		return func(a *walAdmit) {
			a.body = append([]byte(nil), a.body...) // a.body aliases the log
			copy(a.body[off:], b)
		}
	}
	for _, tc := range []struct {
		name    string
		admit   loggedRecord
		payload []byte
	}{
		{"frame-form BN +Inf", admits[1], infBNAdmit(t, admits[1].payload)},
		{"raw frame NaN", admits[0], mutatedAdmit(t, admits[0].payload, nanParams)},
		{"chain base NaN", admits[2], mutatedAdmit(t, admits[2].payload, func(a *walAdmit) { a.chain.p[5] = math.NaN() })},
		{"chain base short", admits[2], mutatedAdmit(t, admits[2].payload, func(a *walAdmit) { a.chain.bn = a.chain.bn[1:] })},
		{"header weight above 2^64", admits[0], mutatedAdmit(t, admits[0].payload,
			header(13, binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e300))...))},
		{"header weight zero", admits[1], mutatedAdmit(t, admits[1].payload, header(13, make([]byte, 8)...))},
		{"envelope magic", admits[0], mutatedAdmit(t, admits[0].payload, header(0, 'F', 'P', 'M', '1'))},
		{"envelope version", admits[2], mutatedAdmit(t, admits[2].payload, header(4, envVersion+1))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := recoverLog(t, withPayload(log, tc.admit, tc.payload))
			if err == nil {
				srv.Close()
				t.Fatal("recovered instead of refusing the admission")
			}
			if !errors.Is(err, ErrWAL) {
				t.Fatalf("error %v does not wrap ErrWAL", err)
			}
		})
	}
}

// appendAdmits returns log with one admission record per payload appended,
// their sequence numbers continuing from the log's last admission record.
func appendAdmits(log []byte, last loggedRecord, payloads ...[]byte) []byte {
	out := append([]byte(nil), log...)
	for i, p := range payloads {
		out = appendWALRecord(out, walRecAdmit, last.seq+1+uint64(i), p)
	}
	return out
}

// rawAdmitPayloads returns the admission payloads of raw round-0 pushes from
// clients ids, logged by a buffered server of admitLog's model that commits
// none of them — records a log of admitLog's shape can carry after its own.
func rawAdmitPayloads(tb testing.TB, ids ...int) [][]byte {
	tb.Helper()
	const nP, nBN = 96, 4
	initP, initBN := synthVec(nP, 1), synthVec(nBN, 2)
	srv := NewServer(initP, initBN, 1, withSegments(2), WithBufferedAggregation(len(ids)+1, 2),
		WithWAL(tb.TempDir()), withWarnf(func(string, ...any) {}))
	for _, id := range ids {
		postOK(tb, srv, rawBodyT(tb, id, 0, 1, perturb(initP, id, 0), perturb(initBN, id, 0)), "")
	}
	var payloads [][]byte
	for _, r := range recordsOf(tb, readLog(tb, srv), walRecAdmit) {
		payloads = append(payloads, r.payload)
	}
	return payloads
}

// refuseRecovery recovers log and requires ErrWAL.
func refuseRecovery(t *testing.T, log []byte) {
	t.Helper()
	srv, err := recoverLog(t, log)
	if err == nil {
		round := srv.Round()
		srv.Close()
		t.Fatalf("recovered at round %d instead of refusing the log", round)
	}
	if !errors.Is(err, ErrWAL) {
		t.Fatalf("error %v does not wrap ErrWAL", err)
	}
}

// TestRecoverRefusesUnreadableRecord pins that only a torn record — short,
// or failing its CRC — ends the intact log. A CRC-valid record the scan
// cannot take was written whole, so no crash explains it: an admission whose
// flag byte is unknown (0x80 on admission 0, which once recovered round 0
// with none of the three admissions and no error), a record of an unknown
// type, a commit record inside a segment. Recovery refuses the whole log
// with ErrWAL and leaves every segment file as it was.
func TestRecoverRefusesUnreadableRecord(t *testing.T) {
	log, admits := admitLog(t, true)
	commit := recordsOf(t, log, walRecCommit)[0]
	badFlag := append([]byte(nil), admits[0].payload...)
	badFlag[0] = 0x80
	last := admits[2].seq
	for _, tc := range []struct {
		name string
		log  []byte
	}{
		{"unknown admit flag", withPayload(log, admits[0], badFlag)},
		{"unknown record type", appendWALRecord(append([]byte(nil), log...), 9, last+1, []byte{1})},
		{"commit inside a segment", appendWALRecord(append([]byte(nil), log...), walRecCommit, last+1, commit.payload)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeLogDir(t, dir, tc.log, int64(len(tc.log)))
			srv, err := RecoverServer(dir)
			if err == nil {
				round, pending := srv.Round(), len(srv.pending)
				srv.Close()
				t.Fatalf("recovered at round %d with %d of 3 admissions instead of refusing the log", round, pending)
			}
			if !errors.Is(err, ErrWAL) {
				t.Fatalf("error %v does not wrap ErrWAL", err)
			}
			if !bytes.Equal(readWALDir(t, dir), tc.log) {
				t.Fatal("a refused log's segments changed on disk")
			}
		})
	}
}

// TestRecoverRefusesDuplicateAdmit pins that replay applies the live
// registry's duplicate rule: a CRC-valid log holding one in-flight (client,
// base round) admission twice — which the live server answers as a
// duplicate and never logs — is refused with ErrWAL, in buffered and
// synchronous mode, instead of folding the push twice.
func TestRecoverRefusesDuplicateAdmit(t *testing.T) {
	for _, buffered := range []bool{true, false} {
		t.Run(fmt.Sprintf("buffered=%v", buffered), func(t *testing.T) {
			log, admits := admitLog(t, buffered)
			refuseRecovery(t, appendAdmits(log, admits[2], admits[0].payload))
		})
	}
}

// TestRecoverRefusesOverfullBuffer pins that replay applies the live
// registry's buffer rule: a CRC-valid log holding K+1 in-flight admissions
// of distinct clients — the live server parks K and commits before it admits
// another — is refused with ErrWAL, in buffered (K = 4) and synchronous
// (quorum 4) mode, instead of folding all K+1.
func TestRecoverRefusesOverfullBuffer(t *testing.T) {
	extra := rawAdmitPayloads(t, 3, 4)
	for _, buffered := range []bool{true, false} {
		t.Run(fmt.Sprintf("buffered=%v", buffered), func(t *testing.T) {
			log, admits := admitLog(t, buffered)
			if srv, err := recoverLog(t, appendAdmits(log, admits[2], extra[0])); err != nil {
				t.Fatalf("K admissions: %v", err)
			} else if r := srv.Round(); r != 1 {
				srv.Close()
				t.Fatalf("K admissions recovered at round %d, want the filled buffer committed", r)
			} else {
				srv.Close()
			}
			refuseRecovery(t, appendAdmits(log, admits[2], extra...))
		})
	}
}

// TestRecoverRefusesMisshapenRetainedCommit pins that recovery checks every
// commit record it rebuilds a snapshot from, not just the newest: a retained
// round's commit one value short in params, in BN or in a variant residual —
// CRC-valid, with a compressed admission decoding against that round after
// it — fails with ErrWAL instead of panicking in the decode or silently
// dropping the residual from the rebuilt base.
func TestRecoverRefusesMisshapenRetainedCommit(t *testing.T) {
	log, commit := retainedCommitLog(t)
	if srv, err := recoverLog(t, log); err != nil {
		t.Fatalf("unmutated log: %v", err)
	} else {
		srv.Close()
	}
	for _, m := range misshapenCommits {
		t.Run(m.name, func(t *testing.T) {
			srv, err := recoverLog(t, withPayload(log, commit, mutatedCommit(t, commit.payload, m.mutate)))
			if err == nil {
				srv.Close()
				t.Fatal("recovered instead of refusing the commit")
			}
			if !errors.Is(err, ErrWAL) {
				t.Fatalf("error %v does not wrap ErrWAL", err)
			}
		})
	}
}

// TestRecoverCountsReplayedTraffic pins the traffic counters of a recovered
// server: each admission it replays is charged what the live handler charged
// its push — the whole body, to bytes_in_raw or bytes_in_compressed, and a
// top-k push also to bytes_in_sparse and updates_sparse.
func TestRecoverCountsReplayedTraffic(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(synthVec(257, 91), synthVec(5, 92), 3, WithWAL(dir), withWarnf(t.Logf))
	var mu sync.Mutex
	var sizes []int64 // the body size of each push, in push order
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/update" {
			mu.Lock()
			sizes = append(sizes, r.ContentLength)
			mu.Unlock()
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	// Quorum 3: both admissions are still in flight when the server dies.
	for _, c := range []*synthClient{{id: 0, weight: 2}, {id: 1, weight: 3, comp: &Compression{Bits: 4, Chunk: 64, TopK: 30}}} {
		c.pull(t, ts)
		if st, dup, _, _ := c.pushAny(t, ts, 0); st != http.StatusOK || dup {
			t.Fatalf("client %d push: status %d dup %v", c.id, st, dup)
		}
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := recoverT(t, dir, 0)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rec.Close()
	st := rec.Stats()
	mu.Lock()
	defer mu.Unlock()
	if len(sizes) != 2 {
		t.Fatalf("%d pushes, want 2", len(sizes))
	}
	type traffic struct{ InRaw, InComp, InSparse, UpdRaw, UpdComp, UpdSparse int64 }
	got := traffic{st.BytesInRaw, st.BytesInCompressed, st.BytesInSparse, st.UpdatesRaw, st.UpdatesCompressed, st.UpdatesSparse}
	if want := (traffic{sizes[0], sizes[1], sizes[1], 1, 1, 1}); got != want {
		t.Fatalf("recovered counters %+v, want %+v", got, want)
	}
}
