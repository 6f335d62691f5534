package fldist

// Recovery and handoff for the write-ahead log (wal.go). The algorithm —
// documented with the determinism argument in docs/ARCHITECTURE.md
// ("Durability") — is O(staleness window), independent of log length:
//
//  1. Read the meta record at offset 0 and the wal.idx checkpoint; seek to
//     the oldest in-window commit the idx pins (full forward scan from the
//     meta record only if the idx is missing or disagrees with the log —
//     read record by record, keeping only the window, so even then memory
//     is O(staleness window)).
//  2. Forward-scan to EOF: commit records rebuild the retained-round history
//     and the latest snapshot + downlink-EF residuals; admission records
//     re-mark the dedup horizon and, for the round after the last commit,
//     re-enter the admission machinery. The first structurally bad record
//     ends the scan — a torn final record is a crash mid-append, and
//     everything before it is intact by CRC.
//  3. Truncate the torn tail and resume appending where the intact log ends.
//
// Replay is bit-identical to never having crashed because it re-runs the
// live arithmetic on the live inputs. Every admission record holds the
// client's wire frames verbatim, and replay runs them through the push
// handler's own decoder (decodeUpdate) and base resolver (resolveBase) — the
// same decode, base add and admission checks — against the base the live
// push resolved: the snapshot of its round for a raw frame, that snapshot's
// served variant for a quantized one (buildServed is a byte-deterministic
// function of snapshot, entry residual and codec, and the commit record
// carries exactly those inputs), or the logged chain base for a
// delta-downlink push, whose chain the log does not rebuild. The fold then
// consumes the same (vals, base) pairs in the same (baseRound, clientID)
// order. Both aggregation modes log and replay admissions alike.
//
// Replay refuses, with ErrWAL, what the live server could never have
// admitted: values outside the admission range, effective weights outside
// the registry's discounted weight bounds, a chain base of the wrong shape
// or beyond twice the admission range. TestRecoverBitIdentical
// pins bit-identity across modes, fold range counts and crash points;
// TestRecoverRefusesOutOfRangeAdmit and FuzzWALAdmitReplay the refusals.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"fedprophet/internal/quant"
)

// walRecCommitPos is one intact commit record found by the scan.
type walRecCommitPos struct {
	c   walCommit
	off int64
}

// walRecovered is everything the forward scan extracted from the intact log
// prefix.
type walRecovered struct {
	meta    walMeta
	commits []walRecCommitPos // in log order; last is the current round
	admits  []*walAdmit       // in log order
	lastSeq uint64
	torn    bool // the log ended in a torn/corrupt record that was truncated
}

// readWALRecordAt reads and validates the single record starting at off.
func readWALRecordAt(f io.ReaderAt, off, size int64) (typ byte, seq uint64, payload []byte, end int64, err error) {
	if size-off < walHeaderSize {
		return 0, 0, nil, 0, fmt.Errorf("%w: %d bytes at offset %d, header needs %d",
			ErrWAL, size-off, off, walHeaderSize)
	}
	hdr := make([]byte, walHeaderSize)
	if _, err := f.ReadAt(hdr, off); err != nil {
		return 0, 0, nil, 0, err
	}
	// Validate magic and declared length from the header alone, so the full
	// read is sized without trusting a corrupt length field.
	if string(hdr[:4]) != walMagic {
		return 0, 0, nil, 0, fmt.Errorf("%w: magic %q at offset %d", ErrWAL, hdr[:4], off)
	}
	plen := int64(binary.LittleEndian.Uint32(hdr[5:9]))
	if plen <= 0 || plen > walMaxPayload || off+walHeaderSize+plen > size {
		return 0, 0, nil, 0, fmt.Errorf("%w: record at offset %d truncated or corrupt", ErrWAL, off)
	}
	rec := make([]byte, walHeaderSize+plen)
	if _, err := f.ReadAt(rec, off); err != nil {
		return 0, 0, nil, 0, err
	}
	typ, seq, payload, n, err := parseWALRecord(rec)
	if err != nil {
		return 0, 0, nil, 0, err
	}
	return typ, seq, payload, off + int64(n), nil
}

// scanWALFile extracts the recovered state and the end of the intact prefix.
func scanWALFile(f *os.File, dir string) (*walRecovered, int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	size := fi.Size()

	typ, seq, payload, metaEnd, err := readWALRecordAt(f, 0, size)
	if err != nil {
		return nil, 0, fmt.Errorf("fldist: WAL meta record: %w", err)
	}
	if typ != walRecMeta {
		return nil, 0, fmt.Errorf("%w: first record type %d, want meta", ErrWAL, typ)
	}
	meta, err := parseWALMeta(payload)
	if err != nil {
		return nil, 0, err
	}
	st := &walRecovered{meta: meta, lastSeq: seq}

	// The idx pins the oldest in-window commit; trust it only if a commit
	// record actually parses there, otherwise fall back to the full scan.
	scanStart := metaEnd
	if idx, ierr := readWALIdx(dir); ierr == nil && len(idx) > 0 {
		off := idx[0].off
		if off >= metaEnd && off < size {
			if t, _, _, _, rerr := readWALRecordAt(f, off, size); rerr == nil && t == walRecCommit {
				scanStart = off
			}
		}
	}

	end, err := scanWALFrom(f, st, scanStart, size)
	if err != nil {
		return nil, 0, err
	}
	if len(st.commits) == 0 && scanStart != metaEnd {
		// A stale or lying idx pointed past the intact prefix; rescan from
		// the top before declaring the log commitless.
		st.commits, st.admits, st.torn = nil, nil, false
		st.lastSeq = seq
		if end, err = scanWALFrom(f, st, metaEnd, size); err != nil {
			return nil, 0, err
		}
	}
	return st, end, nil
}

// scanWALFrom forward-scans records in [start, size) one at a time,
// accumulating into st, and returns the offset where the intact prefix ends.
// It holds only what recovery uses — the last maxStale+1 commits and the
// admissions whose admit round lies inside the newest commit's window — so a
// scan from the meta record (no usable idx) costs the window's memory, not
// the log's.
func scanWALFrom(f *os.File, st *walRecovered, start, size int64) (int64, error) {
	keep := st.meta.maxStale + 1
	if st.commits == nil {
		st.commits = make([]walRecCommitPos, 0, keep)
	}
	off := start
	for off < size {
		typ, seq, payload, end, err := readWALRecordAt(f, off, size)
		if errors.Is(err, ErrWAL) {
			// Torn final record (crash mid-append) or trailing corruption:
			// the intact prefix ends here.
			st.torn = true
			break
		}
		if err != nil {
			return 0, err
		}
		switch typ {
		case walRecCommit:
			c, cerr := parseWALCommit(payload)
			if cerr != nil {
				st.torn = true
				return off, nil
			}
			if len(st.commits) == keep {
				st.commits = slices.Delete(st.commits, 0, 1)
			}
			st.commits = append(st.commits, walRecCommitPos{c: c, off: off})
			// An admission folded before the window opened can neither
			// replay nor mark a dedup horizon recovery keeps.
			st.admits = slices.DeleteFunc(st.admits, func(a *walAdmit) bool {
				return a.admitRound < c.round-st.meta.maxStale
			})
		case walRecAdmit:
			a, aerr := parseWALAdmit(payload)
			if aerr != nil {
				st.torn = true
				return off, nil
			}
			a.seq = seq
			st.admits = append(st.admits, a)
		default:
			// A second meta record or an edge record inside a server log is
			// not something this writer produces, and an unknown type comes
			// from a newer writer: stop, recover the prefix understood.
			st.torn = true
			return off, nil
		}
		if seq > st.lastSeq {
			st.lastSeq = seq
		}
		off = end
	}
	return off, nil
}

// openWALForRecovery locks dir, scans the log, truncates any torn tail, and
// returns the log opened for further appends plus the recovered state.
func openWALForRecovery(dir string) (*wal, *walRecovered, error) {
	lf, err := lockWALDir(dir)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, walLogName), os.O_RDWR, 0)
	if err != nil {
		lf.Close()
		return nil, nil, err
	}
	st, end, err := scanWALFile(f, dir)
	if err == nil && st.torn {
		err = f.Truncate(end)
	}
	if err == nil {
		_, err = f.Seek(end, io.SeekStart)
	}
	if err != nil {
		f.Close()
		lf.Close()
		return nil, nil, err
	}
	w := newWAL(dir, f, lf, st.meta)
	w.off = end
	w.nextSeq = st.lastSeq + 1
	w.writeSeq = st.lastSeq + 1
	// The scan kept the last w.keep commits: exactly the idx's entries.
	for _, c := range st.commits {
		w.idx = append(w.idx, walIdxEntry{round: c.c.round, off: c.off})
	}
	w.commits.Store(int64(len(st.commits)))
	if n := len(st.commits); n > 0 {
		w.lastRound.Store(int64(st.commits[n-1].c.round))
	}
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
	if len(st.commits) == 0 {
		return nil, fmt.Errorf("fldist: WAL in %s has no intact commit record", w.dir)
	}

	// Every snapshot recovery installs — the newest commit's and the
	// retained rounds' — is rebuilt from its own commit record, residuals
	// included, so a served variant of any of them builds exactly the bytes
	// the dead process served, on demand, through the live getServed. Only
	// those records are checked against the meta shape: older commits never
	// reach a snapshot.
	cur, err := snapshotFromCommit(st.commits[len(st.commits)-1].c, m)
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
	for _, cp := range st.commits[:len(st.commits)-1] {
		if cp.c.round >= R-m.maxStale {
			sn, err := snapshotFromCommit(cp.c, m)
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
	// the buffer, through the live handler's decoder and base resolver.
	for _, a := range st.admits {
		stale := a.admitRound - a.baseRound
		if stale < 0 || stale > m.maxStale || a.admitRound > R {
			return nil, fmt.Errorf("%w: admission (client %d, base %d, at %d) outside window",
				ErrWAL, a.clientID, a.baseRound, a.admitRound)
		}
		if a.admitRound != R {
			// Folded by a later logged commit: only its dedup mark lives on.
			if a.baseRound >= R-m.maxStale {
				set := s.admitted[a.baseRound]
				if set == nil {
					set = map[int]bool{}
					s.admitted[a.baseRound] = set
				}
				set[a.clientID] = true
			}
			continue
		}
		// The logged effective weight parks as-is: it is the discount the
		// live registry applied, and re-deriving it from the raw weight
		// would not round-trip. IEEE division is monotone, so every weight
		// checkWeight admits discounts into these bounds.
		if d := float64(1 + stale); !(a.effW >= minWeight/d && a.effW <= maxWeight/d) {
			return nil, fmt.Errorf("%w: admission weight %v", ErrWAL, a.effW)
		}
		buf := s.bufPool.Get().(*updateBuf)
		base, err := s.replayAdmit(a, buf)
		if err != nil {
			s.bufPool.Put(buf)
			return nil, fmt.Errorf("%w: admission (client %d, base %d): %v", ErrWAL, a.clientID, a.baseRound, err)
		}
		s.parkLocked(a.clientID, a.baseRound, stale, a.effW, buf, base.p, base.bn)
		if a.comp {
			s.updatesComp.Add(1)
		} else {
			s.updatesRaw.Add(1)
		}
	}

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

// replayAdmit runs a logged admission's wire frames through the push
// handler's decoder into buf, against the base resolveBase picks — a
// served variant built now if the crash took it — and returns that base:
// exactly the (vals, base) pair register saw before the crash. A logged
// chain base stands in for the delta chain the log does not rebuild; it must
// fit the model, and its finiteness verdict is recomputed from its values.
func (s *Server) replayAdmit(a *walAdmit, buf *updateBuf) (updateBase, error) {
	chain := a.chain
	if chain != nil {
		if len(chain.p) != len(buf.params) || len(chain.bn) != len(buf.bn) {
			return updateBase{}, errShapeMismatch
		}
		// A chain base is a dequantised image of committed models, near
		// the admission range; one far beyond it could drive the fold's
		// x − base past the float range.
		if !allWithin(chain.p, 2*maxValue) || !allWithin(chain.bn, 2*maxValue) {
			return updateBase{}, errOutOfRange
		}
		chain.finite = allWithin(chain.p, maxValue)
	}
	var pd, bd quant.StreamDecoder
	return decodeUpdate(bytes.NewReader(a.frames), &pd, &bd, buf, func(pd *quant.StreamDecoder) (updateBase, error) {
		return s.resolveBase(pd, a.baseRound, chain)
	})
}
