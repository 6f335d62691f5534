package fldist

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Recovery determinism: a federation that crashes and recovers must end,
// after the surviving clients finish their pushes, on the bit-identical
// model a never-crashed run produces from the same admission sequence. This
// file pins that across aggregation modes and shard counts, plus the live
// handoff path, the edge restart re-push (deduplicated exactly once
// upstream), and the shutdown warning contract for abandoned buffered work.

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
// never-crashed reference. Buffered mode replays its logged admissions;
// sync mode resumes at the last commit and the clients whose pushes died
// with the process push again, exactly as the wire contract tells them to.
func TestRecoverBitIdentical(t *testing.T) {
	const nPush = 9 // 3 commits of 3 in both modes
	initP, initBN := synthVec(257, 71), synthVec(5, 72)

	mkServer := func(mode string, shards int, opts ...ServerOption) *Server {
		if mode == "buffered" {
			opts = append(opts, WithBufferedAggregation(3, 2))
			return NewServer(initP, initBN, 1, append(opts, WithShards(shards))...)
		}
		return NewServer(initP, initBN, 3, append(opts, WithShards(shards))...)
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

					rec, err := RecoverServer(dir, WithShards(shards), withWarnf(t.Logf))
					if err != nil {
						t.Fatalf("recover: %v", err)
					}
					defer rec.Close()
					ts2 := httptest.NewServer(rec.Handler())
					defer ts2.Close()

					// Where the federation resumes: buffered mode replayed every
					// admission the WAL held, so the next push is exactly the
					// next scripted one; sync mode lost the partial quorum and
					// those clients re-push from the recovered round's start.
					resume := crashAt
					if mode == "sync" {
						resume = rec.Round() * 3
						if resume > crashAt {
							t.Fatalf("sync recovery at round %d implies %d pushes, but only %d happened", rec.Round(), resume, crashAt)
						}
					}
					for id := resume; id < nPush; id++ {
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

// Live handoff: a successor blocks on the incumbent's flock and takes over
// at its exact round the moment the incumbent closes — no state lost, no
// double ownership, and the federation keeps moving under the successor.
func TestHandoff(t *testing.T) {
	dir := t.TempDir()
	srv, refP, _ := walScript(t, dir, 2, 0, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	type result struct {
		s   *Server
		err error
	}
	ch := make(chan result, 1)
	go func() {
		s, err := Handoff(ctx, dir, WithShards(4), withWarnf(t.Logf))
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
		WithShards(2), WithBufferedAggregation(1, 2))
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
		WithShards(2), WithBufferedAggregation(1, 2))
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

	t.Run("buffered with WAL: recoverable, and recovery proves it", func(t *testing.T) {
		dir := t.TempDir()
		var warns []string
		srv := NewServer(initP, initBN, 1,
			WithBufferedAggregation(3, 2), WithWAL(dir), capture(&warns))
		oneAdmit(srv)
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if len(warns) != 1 || !strings.Contains(warns[0], "1 buffered update(s)") || !strings.Contains(warns[0], "all logged") {
			t.Fatalf("warnings = %q, want one mentioning the count and full WAL coverage", warns)
		}
		// The promise in the warning: recovery replays the abandoned update,
		// so two more pushes complete the buffer of three.
		rec, err := RecoverServer(dir, withWarnf(t.Logf))
		if err != nil {
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

	t.Run("buffered without WAL: lost", func(t *testing.T) {
		var warns []string
		srv := NewServer(initP, initBN, 1, WithBufferedAggregation(3, 2), capture(&warns))
		oneAdmit(srv)
		srv.Close()
		if len(warns) != 1 || !strings.Contains(warns[0], "no WAL") {
			t.Fatalf("warnings = %q, want one saying the update is lost without a WAL", warns)
		}
	})

	t.Run("sync with WAL: partial quorum not logged", func(t *testing.T) {
		var warns []string
		srv := NewServer(initP, initBN, 3, WithWAL(t.TempDir()), capture(&warns))
		oneAdmit(srv)
		srv.Close()
		if len(warns) != 1 || !strings.Contains(warns[0], "sync mode logs commits only") {
			t.Fatalf("warnings = %q, want one saying sync mode does not log admissions", warns)
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
// uncommitted frame-form admission whose base round is no longer the head.
// Recovery must re-run the handler's decode against the identical served
// base, rebuilt from the base round's logged snapshot and entry residual
// (servedBaseForReplay's history branch), and the finished federation must
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

	// Crashed run: die with the stale frame-form admission uncommitted.
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

	rec, err := RecoverServer(dir, withWarnf(t.Logf))
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
