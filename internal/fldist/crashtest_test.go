package fldist

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// The crash-injection harness. Three failure models, one invariant:
//
//   - prefix truncation at (and inside) every record boundary — the on-disk
//     image of a kill at any instant under any reordering-free filesystem;
//   - a fault-injecting WAL sink that errors or short-writes at a chosen
//     record — torn tails and dying disks, with the server expected to keep
//     serving degraded;
//   - a real SIGKILL of a child process mid-federation — the page cache keeps
//     what the process wrote, recovery resumes it.
//
// The invariant, everywhere: recovery lands on a snapshot bit-identical to
// the last intact commit record in the log — never a blend, never a torn
// state, never a panic — and a log with no intact commit is a clean error.

// walScript drives a deterministic fleet against a WAL-backed server —
// buffered (K=3, window 2) or a synchronous quorum of 3: `commits` full
// buffers (quorums) of 3 pushes plus `extra` admitted-but-uncommitted pushes
// at the end. It returns the reference snapshot after every commit (index =
// round) and the live server for further inspection. The caller owns
// srv.Close.
func walScript(t *testing.T, dir string, buffered bool, commits, extra, shards int) (srv *Server, refP, refBN map[int][]float64) {
	t.Helper()
	initParams := synthVec(257, 71) // odd length: ragged shards
	initBN := synthVec(5, 72)
	opts := []ServerOption{withSegments(shards), WithWAL(dir), withWarnf(t.Logf)}
	if buffered {
		srv = NewServer(initParams, initBN, 1, append(opts, WithBufferedAggregation(walTestBufferK, 2))...)
	} else {
		srv = NewServer(initParams, initBN, walTestBufferK, opts...)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	refP = map[int][]float64{0: append([]float64(nil), initParams...)}
	refBN = map[int][]float64{0: append([]float64(nil), initBN...)}

	push := func(c *synthClient, wantRound int) {
		if r := c.pull(t, ts); r != wantRound {
			t.Fatalf("client %d pulled round %d, want %d", c.id, r, wantRound)
		}
		if st, dup, _, _ := c.push(t, ts, wantRound); st != http.StatusOK || dup {
			t.Fatalf("client %d push: status %d dup %v", c.id, st, dup)
		}
	}
	id := 0
	for r := 0; r < commits; r++ {
		for i := 0; i < walTestBufferK; i++ {
			c := &synthClient{id: id, weight: float64(id%4 + 1)}
			if id%3 == 2 {
				c.comp = &Compression{Bits: 8, Chunk: 64}
			}
			push(c, r)
			id++
		}
		if srv.Round() != r+1 {
			t.Fatalf("round = %d after buffer %d, want %d", srv.Round(), r, r+1)
		}
		p, bn := srv.Snapshot()
		refP[r+1], refBN[r+1] = p, bn
	}
	for i := 0; i < extra; i++ {
		push(&synthClient{id: id, weight: 2}, commits)
		id++
	}
	return srv, refP, refBN
}

// walTestBufferK is the commit threshold (buffer or quorum) every scripted
// run in this file uses; walBoundaries needs it to predict recovery's folds.
const walTestBufferK = 3

// walBoundaries walks a finished log and returns each record's end offset
// together with the round a recovery of the prefix ending there lands on
// (-1 while no commit is included yet). That round is the last wholly
// contained commit — plus one when the prefix also holds a full buffer of
// admissions after it, because recovery replays those and deterministically
// folds the commit the dying process never got to log.
func walBoundaries(t *testing.T, log []byte) (ends []int64, recoversTo []int) {
	t.Helper()
	off, commit, admitsSince := int64(0), -1, 0
	rest := log
	for len(rest) > 0 {
		typ, _, payload, n, err := parseWALRecord(rest)
		if err != nil {
			t.Fatalf("finished log corrupt at offset %d: %v", off, err)
		}
		switch typ {
		case walRecCommit:
			c, cerr := parseWALCommit(payload)
			if cerr != nil {
				t.Fatal(cerr)
			}
			commit, admitsSince = c.round, 0
		case walRecAdmit:
			admitsSince++
		}
		off += int64(n)
		rest = rest[n:]
		ends = append(ends, off)
		want := commit
		if commit >= 0 && admitsSince >= walTestBufferK {
			want = commit + 1
		}
		recoversTo = append(recoversTo, want)
	}
	return ends, recoversTo
}

// assertRecovered recovers dir and checks the snapshot is bit-identical to
// the reference vectors of wantRound. It closes the recovered server.
func assertRecovered(t *testing.T, dir string, shards, wantRound int, refP, refBN map[int][]float64) {
	t.Helper()
	rec, err := recoverT(t, dir, shards)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rec.Close()
	if rec.Round() != wantRound {
		t.Fatalf("recovered round %d, want %d", rec.Round(), wantRound)
	}
	p, bn := rec.Snapshot()
	wp, wbn := refP[wantRound], refBN[wantRound]
	if len(p) != len(wp) || len(bn) != len(wbn) {
		t.Fatalf("recovered shape (%d,%d), want (%d,%d)", len(p), len(bn), len(wp), len(wbn))
	}
	for i := range wp {
		if p[i] != wp[i] {
			t.Fatalf("round %d params[%d] = %v, want %v (not bit-identical)", wantRound, i, p[i], wp[i])
		}
	}
	for i := range wbn {
		if bn[i] != wbn[i] {
			t.Fatalf("round %d bn[%d] = %v, want %v (not bit-identical)", wantRound, i, bn[i], wbn[i])
		}
	}
}

// Prefix truncation at every record boundary and at torn cuts inside every
// record, in both aggregation modes: recovery always lands on the last
// wholly-contained commit — or the one a full logged buffer folds to —
// bit-identically, and errors cleanly (never panics) when no commit
// survives. The cuts run over the log's whole history, recorded as written:
// on disk the paced fsync and Close prune it to the staleness window.
func TestWALCrashTruncationSweep(t *testing.T) {
	for _, buffered := range []bool{true, false} {
		name := "sync"
		if buffered {
			name = "buffered"
		}
		t.Run(name, func(t *testing.T) { truncationSweep(t, buffered) })
	}
}

func truncationSweep(t *testing.T, buffered bool) {
	history := recordWAL(t)
	srv, refP, refBN := walScript(t, t.TempDir(), buffered, 3, 1, 4)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	logBytes := history()
	ends, lastCommit := walBoundaries(t, logBytes)

	try := func(t *testing.T, cut int64, want int) {
		sub := t.TempDir()
		writeLogDir(t, sub, logBytes, cut)
		if want < 0 {
			rec, err := recoverT(t, sub, 0)
			if err == nil {
				rec.Close()
				t.Fatalf("cut %d: recovery succeeded with no intact commit", cut)
			}
			return
		}
		assertRecovered(t, sub, 2, want, refP, refBN)
	}

	// Every record boundary.
	prevEnd := int64(0)
	for i, end := range ends {
		try(t, end, lastCommit[i])
		// Torn cuts inside this record: one byte in (mid-header) and one
		// byte short of complete (mid-payload) — the prefix covers only
		// the earlier records.
		covered := -1
		if i > 0 {
			covered = lastCommit[i-1]
		}
		if prevEnd+1 < end {
			try(t, prevEnd+1, covered)
		}
		if end-1 > prevEnd {
			try(t, end-1, covered)
		}
		prevEnd = end
	}

	// A recovered-then-truncated log is itself recoverable: recovery truncated
	// the torn tail in place, so a second recovery sees a clean log.
	sub := t.TempDir()
	cut := ends[len(ends)-1] - 2 // torn final record
	writeLogDir(t, sub, logBytes, cut)
	want := lastCommit[len(ends)-2]
	assertRecovered(t, sub, 1, want, refP, refBN)
	assertRecovered(t, sub, 4, want, refP, refBN)

	// A bad record mid-log ends the intact log there: recovery deletes the
	// segments past it, so they never resurface behind the ones the
	// recovered server writes.
	sub = t.TempDir()
	writeLogDir(t, sub, logBytes, int64(len(logBytes)))
	mid := len(ends) / 2
	rounds, err := walSegments(sub)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the last payload byte of record mid, in the segment holding it:
	// its CRC fails.
	for off, i := ends[mid]-1, 0; ; i++ {
		path := filepath.Join(sub, walSegName(rounds[i]))
		seg, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if off < int64(len(seg)) {
			seg[off] ^= 1
			if err := os.WriteFile(path, seg, 0o644); err != nil {
				t.Fatal(err)
			}
			break
		}
		off -= int64(len(seg))
	}
	assertRecovered(t, sub, 2, lastCommit[mid-1], refP, refBN)
	if rounds, err = walSegments(sub); err != nil {
		t.Fatal(err)
	}
	if n := len(rounds); n == 0 || rounds[n-1] > lastCommit[mid-1]+1 {
		t.Fatalf("segments %v left after recovering to round %d", rounds, lastCommit[mid-1])
	}
}

// TestWALSegmentContinuity damages a middle segment of a 4-commit buffered
// log the way a power loss inside one paced fsync can: the older segment
// loses its tail or its whole file while newer ones survive. Every segment
// after the oldest must open with the commit that continues its
// predecessor's sequence, so recovery ends the intact log before the gap —
// bit-identically, with the admissions logged there replayed — and deletes
// every segment past it, instead of landing on a newer commit without the
// dedup marks of the admissions it folded.
func TestWALSegmentContinuity(t *testing.T) {
	history := recordWAL(t)
	srv, refP, refBN := walScript(t, t.TempDir(), true, 4, 0, 2)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	logBytes := history()
	seg2 := func(dir string) string { return filepath.Join(dir, walSegName(2)) }
	for _, tc := range []struct {
		name   string
		damage func(dir string) error
		// Round 1's segment holds a full buffer, which recovery replays and
		// folds into round 2 when segment 2 is lost.
		round, pending int
	}{
		{"lost tail", func(dir string) error {
			b, err := os.ReadFile(seg2(dir))
			last := 0
			for off := 0; err == nil && off < len(b); {
				var n int
				_, _, _, n, err = parseWALRecord(b[off:])
				last, off = off, off+n
			}
			if err != nil {
				return err
			}
			return os.WriteFile(seg2(dir), b[:last], 0o644) // client 8's admission
		}, 2, 2},
		{"missing segment", func(dir string) error { return os.Remove(seg2(dir)) }, 2, 0},
		{"segment renamed to a later round", func(dir string) error {
			return os.Rename(seg2(dir), filepath.Join(dir, walSegName(5)))
		}, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeLogDir(t, dir, logBytes, int64(len(logBytes)))
			if err := tc.damage(dir); err != nil {
				t.Fatal(err)
			}
			rec, err := recoverT(t, dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			round, pending := rec.Round(), len(rec.pending)
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			if round != tc.round || pending != tc.pending {
				t.Fatalf("recovered round %d with %d pending, want round %d with %d", round, pending, tc.round, tc.pending)
			}
			rounds, err := walSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rounds[len(rounds)-1] > tc.round {
				t.Fatalf("segments %v left after recovering to round %d", rounds, tc.round)
			}
			assertRecovered(t, dir, 2, tc.round, refP, refBN)
		})
	}
}

// recordWAL records every byte written to the WAL segments opened until the
// returned function is called, which stops the recording and returns the
// bytes in write order: a fresh log's whole history, the concatenation of
// its segments from round 0 on.
func recordWAL(t *testing.T) func() []byte {
	var history bytes.Buffer
	walWrapFile = func(f walFile) walFile { return teeSink{f, &history} }
	t.Cleanup(func() { walWrapFile = nil })
	return func() []byte {
		walWrapFile = nil
		return history.Bytes()
	}
}

// teeSink copies what its segment is written into the recorded history.
// Writes arrive under the log's write gate, one at a time.
type teeSink struct {
	walFile
	history *bytes.Buffer
}

func (s teeSink) Write(p []byte) (int, error) {
	n, err := s.walFile.Write(p)
	s.history.Write(p[:n])
	return n, err
}

// writeLogDir writes log — the concatenation of a fresh log's segments,
// round 0 first — cut at byte cut into dir as segment files: each meta
// record opens the next round's segment. A cut at a segment's first byte
// leaves that segment created but empty, as a crash between the create and
// the first write does.
func writeLogDir(tb testing.TB, dir string, log []byte, cut int64) {
	tb.Helper()
	var starts []int64
	for off := int64(0); off < int64(len(log)); {
		typ, _, _, n, err := parseWALRecord(log[off:])
		if err != nil {
			break
		}
		if typ == walRecMeta {
			starts = append(starts, off)
		}
		off += int64(n)
	}
	for r, start := range starts {
		if start > cut {
			break
		}
		end := int64(len(log))
		if r+1 < len(starts) {
			end = starts[r+1]
		}
		if err := os.WriteFile(filepath.Join(dir, walSegName(r)), log[start:min(end, cut)], 0o644); err != nil {
			tb.Fatal(err)
		}
	}
}

// readWALDir returns dir's segments concatenated in round order: the byte
// sequence recovery scans.
func readWALDir(tb testing.TB, dir string) []byte {
	tb.Helper()
	rounds, err := walSegments(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var log []byte
	for _, r := range rounds {
		b, err := os.ReadFile(filepath.Join(dir, walSegName(r)))
		if err != nil {
			tb.Fatal(err)
		}
		log = append(log, b...)
	}
	return log
}

// faultDisk is the walWrapFile fault injection, one budget shared by every
// segment the log opens: it forwards writes until the budget runs out, then
// optionally writes a partial prefix (a torn record) and fails every write
// (and sync) from then on. Its own mutex makes it safe against the WAL's
// background group-commit fsync, which syncs from a goroutine concurrent
// with appends.
type faultDisk struct {
	mu      sync.Mutex
	budget  int // appends to allow before failing
	partial int // bytes of the failing write to let through (torn tail)
	broken  bool
}

// faultSink is one segment written through a faultDisk.
type faultSink struct {
	d *faultDisk
	f walFile
}

var errInjected = errors.New("injected WAL fault")

func (fs faultSink) Write(p []byte) (int, error) {
	fs.d.mu.Lock()
	defer fs.d.mu.Unlock()
	if fs.d.broken {
		return 0, errInjected
	}
	if fs.d.budget > 0 {
		fs.d.budget--
		return fs.f.Write(p)
	}
	fs.d.broken = true
	if fs.d.partial > 0 && fs.d.partial < len(p) {
		n, _ := fs.f.Write(p[:fs.d.partial])
		return n, errInjected
	}
	return 0, errInjected
}

func (fs faultSink) Sync() error {
	fs.d.mu.Lock()
	defer fs.d.mu.Unlock()
	if fs.d.broken {
		return errInjected
	}
	return fs.f.Sync()
}

func (fs faultSink) Close() error { return fs.f.Close() }

// A WAL whose sink starts failing mid-run (cleanly or with a torn partial
// record): the server must keep serving — every push still admitted, every
// buffer still committed — warn exactly once, flag Broken in stats, and
// recovery must land bit-identically on the last commit that reached disk.
func TestWALWriteFaultInjection(t *testing.T) {
	// First, a clean run to count appends and capture references.
	cleanDir := t.TempDir()
	srv, refP, refBN := walScript(t, cleanDir, true, 3, 1, 4)
	total := int(srv.wal.records.Load())
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { walWrapFile = nil })

	for _, partial := range []int{0, 7} {
		for budget := 0; budget < total; budget++ {
			dir := t.TempDir()
			disk := &faultDisk{budget: budget, partial: partial}
			walWrapFile = func(f walFile) walFile { return faultSink{disk, f} }

			var warns []string
			// The meta record and initial commit are appended inside NewServer
			// — a budget that small panics there by contract (a server that
			// cannot create its WAL must not start). Catch and move on.
			created := func() (s *Server, ok bool) {
				defer func() {
					if r := recover(); r != nil {
						ok = false
					}
				}()
				s = NewServer(synthVec(257, 71), synthVec(5, 72), 1,
					withSegments(4), WithBufferedAggregation(3, 2), WithWAL(dir),
					withWarnf(func(f string, a ...any) { warns = append(warns, f) }))
				return s, true
			}
			s, ok := created()
			if !ok {
				if budget >= 2 {
					t.Fatalf("budget %d: NewServer panicked after the initial records", budget)
				}
				continue
			}

			// Drive the same script by hand; every push must succeed even
			// while the WAL is refusing writes.
			ts := httptest.NewServer(s.Handler())
			id := 0
			for r := 0; r < 3; r++ {
				for i := 0; i < 3; i++ {
					c := &synthClient{id: id, weight: float64(id%4 + 1)}
					if id%3 == 2 {
						c.comp = &Compression{Bits: 8, Chunk: 64}
					}
					if got := c.pull(t, ts); got != r {
						t.Fatalf("budget %d: pulled %d, want %d", budget, got, r)
					}
					if st, dup, _, _ := c.push(t, ts, r); st != http.StatusOK || dup {
						t.Fatalf("budget %d: push status %d dup %v with broken WAL", budget, st, dup)
					}
					id++
				}
				if s.Round() != r+1 {
					t.Fatalf("budget %d: round %d, want %d — a WAL fault stalled aggregation", budget, s.Round(), r+1)
				}
			}
			ts.Close()

			if disk.broken {
				if len(warns) == 0 {
					t.Fatalf("budget %d: WAL broke with no warning", budget)
				}
				if !s.Stats().WAL.Broken {
					t.Fatalf("budget %d: stats does not flag the broken WAL", budget)
				}
			}
			s.Close()
			walWrapFile = nil

			// Recovery: bit-identical to the last commit that reached disk.
			_, lastCommit := walBoundaries(t, truncateToIntact(readWALDir(t, dir)))
			want := -1
			if len(lastCommit) > 0 {
				want = lastCommit[len(lastCommit)-1]
			}
			if want < 0 {
				if rec, err := recoverT(t, dir, 0); err == nil {
					rec.Close()
					t.Fatalf("budget %d: recovery succeeded with no intact commit", budget)
				}
				continue
			}
			assertRecovered(t, dir, 4, want, refP, refBN)
		}
	}
}

// truncateToIntact cuts a log at its first structurally bad record, the same
// prefix recovery uses.
func truncateToIntact(log []byte) []byte {
	off := 0
	rest := log
	for len(rest) > 0 {
		_, _, _, n, err := parseWALRecord(rest)
		if err != nil {
			break
		}
		off += n
		rest = rest[n:]
	}
	return log[:off]
}

// crashChildEnv marks the re-exec'd child of the SIGKILL test.
const crashChildEnv = "FLDIST_WAL_CRASH_CHILD_DIR"

// TestWALCrashChildMain is not a test of its own: it is the body of the
// child process the SIGKILL test abandons. It creates (or recovers) a
// WAL-backed server in the directory named by the env var and federates
// deterministic pushes forever, until the parent kills -9 it.
func TestWALCrashChildMain(t *testing.T) {
	dir := os.Getenv(crashChildEnv)
	if dir == "" {
		t.Skip("child body; driven by TestWALCrashSIGKILL")
	}
	var srv *Server
	if WALExists(dir) {
		s, err := recoverT(t, dir, 2)
		if err != nil {
			t.Fatalf("child recover: %v", err)
		}
		srv = s
	} else {
		srv = NewServer(synthVec(257, 71), synthVec(5, 72), 1,
			withSegments(2), WithBufferedAggregation(3, 2), WithWAL(dir))
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Signal the parent that commits are flowing.
	started := srv.RoundsCompleted()
	for id := 0; ; id++ {
		c := &synthClient{id: id, weight: float64(id%4 + 1)}
		r := c.pull(t, ts)
		if st, dup, _, _ := c.push(t, ts, r); st != http.StatusOK || dup {
			t.Fatalf("child push: %d dup %v", st, dup)
		}
		if srv.RoundsCompleted() > started {
			started = srv.RoundsCompleted()
			os.Stdout.WriteString("COMMIT\n")
		}
	}
}

// A real SIGKILL mid-federation, repeated across restarts: each incarnation
// recovers the previous one's WAL, federates further, and is killed in turn.
// After every kill the log recovers to a snapshot bit-identical to its last
// intact commit record — SIGKILL loses nothing that reached the page cache.
func TestWALCrashSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dir := t.TempDir()
	for incarnation := 0; incarnation < 3; incarnation++ {
		cmd := exec.Command(os.Args[0], "-test.run", "TestWALCrashChildMain")
		cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Wait for at least one commit of this incarnation, then a beat more
		// so the kill lands mid-flight, then SIGKILL.
		buf := make([]byte, 7)
		deadline := time.Now().Add(20 * time.Second)
		for {
			if _, err := stdout.Read(buf); err == nil {
				break
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatal("child produced no commit before the deadline")
			}
		}
		time.Sleep(time.Duration(5+incarnation*7) * time.Millisecond)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		cmd.Wait()

		// The kernel has released the dead child's flock; recovery must land
		// exactly on the last intact commit record.
		intact := truncateToIntact(readWALDir(t, dir))
		_, lastCommit := walBoundaries(t, intact)
		if len(lastCommit) == 0 || lastCommit[len(lastCommit)-1] < 0 {
			t.Fatalf("incarnation %d: no intact commit in the log", incarnation)
		}
		wantRound := lastCommit[len(lastCommit)-1]
		rec, err := recoverT(t, dir, 2)
		if err != nil {
			t.Fatalf("incarnation %d: recover: %v", incarnation, err)
		}
		// Recovery may fold a buffer that had filled right as the kill hit
		// (the commit the dead process was about to log) — the recovered
		// round is then wantRound+1; bit-identity against the *logged* commit
		// holds either way because that fold is itself logged.
		gotRound := rec.Round()
		if gotRound != wantRound && gotRound != wantRound+1 {
			t.Fatalf("incarnation %d: recovered round %d, want %d or %d", incarnation, gotRound, wantRound, wantRound+1)
		}
		// Re-read the log: recovery appends a commit record when it folds a
		// full recovered buffer, and bit-identity is checked against the
		// record for whatever round the recovered server landed on. Close
		// first: the paced fsync prunes segments in the background, and a
		// segment deleted between listing and reading would fail the read.
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		var wantC *walCommit
		rest := truncateToIntact(readWALDir(t, dir))
		for len(rest) > 0 {
			typ, _, payload, n, perr := parseWALRecord(rest)
			if perr != nil {
				t.Fatal(perr)
			}
			if typ == walRecCommit {
				c, cerr := parseWALCommit(payload)
				if cerr != nil {
					t.Fatal(cerr)
				}
				if c.round == gotRound {
					wantC = &c
				}
			}
			rest = rest[n:]
		}
		if wantC == nil {
			t.Fatalf("incarnation %d: no commit record for recovered round %d", incarnation, gotRound)
		}
		p, bn := rec.Snapshot()
		for i := range wantC.params {
			if p[i] != wantC.params[i] {
				t.Fatalf("incarnation %d: params[%d] = %v, want logged %v", incarnation, i, p[i], wantC.params[i])
			}
		}
		for i := range wantC.bn {
			if bn[i] != wantC.bn[i] {
				t.Fatalf("incarnation %d: bn[%d] = %v, want logged %v", incarnation, i, bn[i], wantC.bn[i])
			}
		}
	}
}
