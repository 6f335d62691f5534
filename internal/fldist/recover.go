package fldist

// Recovery and handoff for the write-ahead log (wal.go). The algorithm —
// documented with the determinism argument in docs/ARCHITECTURE.md
// ("Durability") — reads only the segments on disk, which the paced fsync
// keeps to the staleness window plus the rounds of one fsync interval:
//
//  1. List the segments (wal-<round>.seg; the listing sorts by round) and
//     scan them oldest first, record by record. The oldest segment's meta
//     record fixes the log's shape; every segment must open with the same
//     meta record and its own round's commit, whose seq continues the
//     previous segment's. Commit records rebuild the
//     retained-round history and the latest snapshot + downlink-EF
//     residuals, keeping only the newest window+1; admission records, each
//     taking its segment's round as the round it was admitted at, re-mark
//     the dedup horizon and, for the round after the last commit, re-enter
//     the admission registry. The first torn record — short, or failing its
//     CRC: a crash mid-append — ends the intact log, as does a segment that
//     does not continue it (a lost or renamed file); everything before is
//     intact by CRC. Any other record the scan cannot take was written
//     whole, so no crash explains it: the whole log is refused with ErrWAL
//     and its files stay as they are.
//  2. Cut the log back to that end: delete the segments past it (and the one
//     it ends in, if that one's meta or commit record is torn or out of
//     sequence), truncate the torn tail, and resume appending to the segment
//     the intact log ends in.
//
// Replay is bit-identical to never having crashed because it re-runs the
// live operations on the live inputs. Every admission record holds the
// client's push body verbatim, and replay runs it through the push handler's
// own header parser (parseUpdateHeader), weight check, decoder
// (decodeUpdate), base resolver (resolveBase) and admission registry
// (register) — the same decode, base add, window, duplicate, buffer and
// weight rules — against the base the live push resolved: the snapshot of
// its round for a raw frame, that snapshot's
// served variant for a quantized one (buildServed is a byte-deterministic
// function of snapshot, entry residual and codec, and the commit record
// carries exactly those inputs), or the logged chain base for a
// delta-downlink push, whose chain the log does not rebuild. The fold then
// consumes the same (vals, base) pairs in the same (baseRound, clientID)
// order. Both aggregation modes log and replay admissions alike.
//
// Replay refuses, with ErrWAL, what the live server could never have
// admitted: a push body the handler answers 400 or 409, one the registry
// turns away (a duplicate, a stale round, a push past the full buffer), a
// chain base of the wrong shape or beyond twice the admission range.
// TestRecoverBitIdentical pins bit-identity across modes, fold range counts
// and crash points; TestRecoverRefusesOutOfRangeAdmit,
// TestRecoverRefusesDuplicateAdmit, TestRecoverRefusesOverfullBuffer and
// FuzzWALAdmitReplay the refusals.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"fedprophet/internal/quant"
)

// walRecovered is everything the scan extracted from the intact log, and
// where that log ends.
type walRecovered struct {
	meta    walMeta
	metaP   []byte      // the meta payload every segment opens with
	commits []walCommit // the newest maxStale+1, in log order; last is the current round
	admits  []*walAdmit // in log order
	lastSeq uint64

	tail int   // round of the segment the intact log ends in
	end  int64 // that segment's intact length
	drop []int // segments past the intact log
}

// scanWAL reads dir's segments oldest first. It changes nothing on disk:
// a log it refuses — a single-file wal.log of an earlier release, an oldest
// segment whose meta record is bad or of another format — stays as it was.
func scanWAL(dir string) (*walRecovered, error) {
	if _, err := os.Stat(filepath.Join(dir, walOldLogName)); err == nil {
		return nil, fmt.Errorf("%w: %s holds a single-file %s; this binary reads per-round segments only",
			ErrWAL, dir, walOldLogName)
	}
	rounds, err := walSegments(dir)
	if err != nil {
		return nil, err
	}
	st := &walRecovered{}
	ended := false
	for _, r := range rounds {
		if ended {
			st.drop = append(st.drop, r)
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, walSegName(r)))
		if err != nil {
			return nil, err
		}
		if st.metaP == nil {
			if err := st.readMeta(b); err != nil {
				return nil, err
			}
		}
		// The first torn record ends the intact log. A segment without an
		// intact meta and commit record adds nothing to it and goes too.
		end, err := st.scanSegment(r, b)
		if err != nil {
			return nil, err
		}
		ended = end == 0 || end < len(b)
		if end == 0 {
			st.drop = append(st.drop, r)
		} else {
			st.tail, st.end = r, int64(end)
		}
	}
	if len(st.commits) == 0 {
		return nil, fmt.Errorf("fldist: WAL in %s has no intact commit record", dir)
	}
	return st, nil
}

// readMeta parses the meta record at the head of the oldest segment.
func (st *walRecovered) readMeta(b []byte) error {
	typ, _, p, _, err := parseWALRecord(b)
	if err != nil {
		return fmt.Errorf("fldist: WAL meta record: %w", err)
	}
	if typ != walRecMeta {
		return fmt.Errorf("%w: first record type %d, want meta", ErrWAL, typ)
	}
	if st.meta, err = parseWALMeta(p); err != nil {
		return err
	}
	st.metaP = bytes.Clone(p) // b is the whole segment
	st.commits = make([]walCommit, 0, st.meta.maxStale+1)
	return nil
}

// scanSegment adds segment r's records to st and returns the length of its
// intact prefix: 0 when its meta or commit record is torn or does not
// continue the log (a sequence gap, or another round's commit under this
// round's name: a lost or renamed file), else the end of the record before
// the first torn one — short or failing its CRC, what a crash mid-append
// leaves. Any other record the scan cannot take was written whole, so no
// crash made it; recovering past it would silently drop what follows, so
// the log is refused with ErrWAL.
func (st *walRecovered) scanSegment(r int, b []byte) (int, error) {
	off, k := 0, 0
	for ; off < len(b); k++ {
		typ, seq, p, n, err := parseWALRecord(b[off:])
		if err != nil {
			break // torn
		}
		switch {
		case k == 0 && (typ != walRecMeta || !bytes.Equal(p, st.metaP)):
			err = fmt.Errorf("%w: not the log's meta record", ErrWAL)
		case k == 1 && typ != walRecCommit, k > 1 && typ != walRecAdmit:
			// No writer of this log's format puts it here: a newer writer
			// bumps the meta record's format, which is refused whole.
			err = fmt.Errorf("%w: record type %d out of place", ErrWAL, typ)
		case k == 1:
			var c walCommit
			if c, err = parseWALCommit(p); err == nil {
				if (len(st.commits) > 0 && seq != st.lastSeq+1) || c.round != r {
					return 0, nil
				}
				st.addCommit(c)
			}
		case k > 1:
			var a *walAdmit
			if a, err = parseWALAdmit(p); err == nil {
				a.seq, a.admitRound = seq, r
				st.admits = append(st.admits, a)
			}
		}
		if err != nil {
			return 0, fmt.Errorf("segment %d, record %d (seq %d): %w", r, k, seq, err)
		}
		st.lastSeq = max(st.lastSeq, seq)
		off += n
	}
	if k < 2 {
		return 0, nil
	}
	return off, nil
}

// addCommit keeps commit c in the window: the newest maxStale+1 commits,
// and the admissions inside the newest one's staleness window. An admission
// folded before the window opened can neither replay nor mark a dedup
// horizon recovery keeps.
func (st *walRecovered) addCommit(c walCommit) {
	if len(st.commits) == cap(st.commits) {
		st.commits = slices.Delete(st.commits, 0, 1)
	}
	st.commits = append(st.commits, c)
	st.admits = slices.DeleteFunc(st.admits, func(a *walAdmit) bool {
		return a.admitRound < c.round-st.meta.maxStale
	})
}

// openWALForRecovery locks dir, scans the log, cuts it back to its intact
// end, and returns the log opened for further appends plus the recovered
// state.
func openWALForRecovery(dir string) (*wal, *walRecovered, error) {
	lf, err := lockWALDir(dir)
	if err != nil {
		return nil, nil, err
	}
	st, err := scanWAL(dir)
	var f *os.File
	if err == nil {
		err = removeSegments(dir, st.drop)
	}
	if err == nil {
		f, err = os.OpenFile(filepath.Join(dir, walSegName(st.tail)), os.O_WRONLY|os.O_APPEND, 0)
	}
	if err == nil {
		if err = f.Truncate(st.end); err != nil {
			f.Close()
		}
	}
	if err != nil {
		lf.Close()
		return nil, nil, err
	}
	w := newWAL(dir, lf, st.meta)
	w.setSegmentLocked(f) // not yet shared
	w.nextSeq = st.lastSeq + 1
	w.writeSeq = st.lastSeq + 1
	w.commits.Store(int64(len(st.commits)))
	w.lastRound.Store(int64(st.commits[len(st.commits)-1].round))
	return w, st, nil
}

// RecoverServer rebuilds a parameter server from the write-ahead log in dir:
// the model resumes at the last intact commit, the admissions logged after
// it re-enter the buffer (or quorum), and the log stays open for the
// recovered server's own appends. The aggregation mode, commit threshold and
// staleness window come from the log's meta record.
// It returns ErrWALLocked while another live process holds the log — see
// Handoff for waiting that out.
func RecoverServer(dir string) (*Server, error) {
	w, st, err := openWALForRecovery(dir)
	if err != nil {
		return nil, err
	}
	s, err := serverFromWAL(w, st)
	if err != nil {
		w.Close()
		return nil, err
	}
	return s, nil
}

// Handoff blocks until the process currently holding the WAL in dir releases
// it (exits, crashes, or closes the server), then recovers and returns the
// server — the live-handoff path: start the successor with Handoff, stop the
// incumbent, and the federation resumes at its last commit with no state
// lost. The flock on wal.lock is the transfer token; the kernel releases it
// on any process death, so a crashed incumbent hands off exactly like a
// graceful one.
func Handoff(ctx context.Context, dir string) (*Server, error) {
	for {
		s, err := RecoverServer(dir)
		if !errors.Is(err, ErrWALLocked) {
			return s, err
		}
		if !sleepCtx(ctx, 50*time.Millisecond) {
			return nil, ctx.Err()
		}
	}
}

// serverFromWAL builds the recovered server from scanned state.
func serverFromWAL(w *wal, st *walRecovered) (*Server, error) {
	m := st.meta

	// Every snapshot recovery installs — the newest commit's and the
	// retained rounds' — is rebuilt from its own commit record, residuals
	// included, so a served variant of any of them builds exactly the bytes
	// the dead process served, on demand, through the live getServed. Only
	// those records are checked against the meta shape: older commits never
	// reach a snapshot.
	cur, err := snapshotFromCommit(st.commits[len(st.commits)-1], m)
	if err != nil {
		return nil, err
	}
	R := cur.round

	var opts []ServerOption
	if m.async {
		opts = append(opts, WithBufferedAggregation(m.quorumOrK, m.maxStale))
	}
	s := NewServer(cur.params, cur.bn, max(m.quorumOrK, 1), opts...)
	s.model.Store(cur)

	// Retained rounds inside the staleness window (none under the quorum's
	// window 0), so post-recovery pushes against an older base still
	// reconstruct. Served variants are not persisted: replay below builds
	// the ones the logged pushes decoded against, and any other builds when
	// first asked for.
	for _, c := range st.commits[:len(st.commits)-1] {
		if c.round >= R-m.maxStale {
			sn, err := snapshotFromCommit(c, m)
			if err != nil {
				return nil, err
			}
			s.history[sn.round] = sn
		}
	}

	// Re-mark the dedup horizon for every in-window admission — committed or
	// not — so a client retrying an already-counted push after the restart is
	// still answered idempotently, never double-counted. Then replay the
	// admissions of the round in flight (admitted after the last commit) into
	// the buffer, through the live handler's path.
	for _, a := range st.admits {
		if err := s.replayAdmit(a); err != nil {
			return nil, fmt.Errorf("%w: admission record %d (round %d): %v", ErrWAL, a.seq, a.admitRound, err)
		}
	}

	w.uncommitted.Store(int64(len(s.pending))) // every replayed admission is in the log
	w.warnf = s.warn
	s.wal = w

	// A buffer that had already filled when the crash hit (its K-th admission
	// record landed, its commit record did not) commits now — exactly the
	// commit the crashed process was about to write. Replay has rebuilt the
	// served variants the buffered pushes decoded against, so the commit also
	// advances their downlink-EF residuals exactly as the dead process would
	// have.
	if len(s.pending) >= s.bufferK {
		s.commit()
	}
	return s, nil
}

// snapshotFromCommit rebuilds the snapshot a commit record published, with
// the downlink residuals it entered its round with, refusing with ErrWAL a
// record whose vectors or variant codecs do not fit the meta record. The
// parsed vectors are the record's own, so no residual is shared with another
// snapshot.
func snapshotFromCommit(c walCommit, m walMeta) (*snapshot, error) {
	if len(c.params) != m.nParams || len(c.bn) != m.nBN {
		return nil, fmt.Errorf("%w: round %d commit shape (%d,%d) does not match meta (%d,%d)",
			ErrWAL, c.round, len(c.params), len(c.bn), m.nParams, m.nBN)
	}
	sn := &snapshot{round: c.round, params: c.params, bn: c.bn, downErr: map[Compression]residual{}}
	for _, v := range c.downErr {
		if len(v.residual) != m.nParams {
			return nil, fmt.Errorf("%w: round %d variant residual length %d, want %d",
				ErrWAL, c.round, len(v.residual), m.nParams)
		}
		nc, err := v.comp.normalize()
		if err != nil {
			return nil, fmt.Errorf("%w: round %d variant codec: %v", ErrWAL, c.round, err)
		}
		sn.downErr[nc] = residual{v: v.residual}
	}
	return sn, nil
}

// replayAdmit re-admits a logged push body of the round in flight through
// the push handler's path: its header parser and weight check, decodeUpdate
// against the base resolveBase picks — a served variant built now if the
// crash took it — and register, which parks exactly the contribution it
// parked before the crash, or refuses what it refused live. A logged chain
// base stands in for the delta chain the log does not rebuild; it must fit
// the model, and its finiteness verdict is recomputed from its values. An
// admission a later logged commit folded only re-marks its dedup horizon,
// once its round is checked against the window of the round it was
// admitted at.
func (s *Server) replayAdmit(a *walAdmit) error {
	clientID, round, weight, err := parseUpdateHeader(a.body)
	if err != nil {
		return err
	}
	if R := s.model.Load().round; a.admitRound != R {
		if stale := a.admitRound - round; stale < 0 || stale > s.maxStale {
			return fmt.Errorf("client %d's round %d outside the window", clientID, round)
		}
		if round >= R-s.maxStale {
			s.markAdmittedLocked(round, clientID)
		}
		return nil
	}
	if err := checkWeight(weight); err != nil {
		return err
	}
	var pd, bd quant.StreamDecoder
	raw, sparse := false, false
	buf := s.bufPool.Get().(*updateBuf)
	base, err := decodeUpdate(bytes.NewReader(a.body[updateHeaderLen:]), &pd, &bd, buf, func(pd *quant.StreamDecoder) (updateBase, error) {
		raw, sparse = pd.IsRaw(), pd.IsSparse()
		if c := a.chain; c != nil {
			if len(c.p) != len(buf.params) || len(c.bn) != len(buf.bn) {
				return updateBase{}, errShapeMismatch
			}
			// A chain base is a dequantised image of committed models, near
			// the admission range; one far beyond it could drive the fold's
			// x − base past the float range.
			if !allWithin(c.p, 2*maxValue) || !allWithin(c.bn, 2*maxValue) {
				return updateBase{}, errOutOfRange
			}
			c.finite = allWithin(c.p, maxValue)
		}
		return s.resolveBase(pd, round, a.chain)
	})
	if err == nil {
		if outcome, _ := s.register(clientID, round, weight, buf, base.p, base.bn, nil); replayVerdict[outcome] != "" {
			err = fmt.Errorf("client %d's push of round %d is %s", clientID, round, replayVerdict[outcome])
		}
	}
	if err != nil {
		s.bufPool.Put(buf)
		return err
	}
	// Charged as the live handler charged the push: its whole body.
	s.countBytesIn(raw, sparse, int64(len(a.body)))
	s.countUpdate(raw, sparse)
	return nil
}

// replayVerdict names the registry outcomes that refuse a replayed push; the
// two admissions have none.
var replayVerdict = [...]string{
	regDuplicate:  "a duplicate",
	regStale:      "outside the window",
	regQuorumFull: "past the full buffer",
	regBufferFull: "past the full buffer",
}
