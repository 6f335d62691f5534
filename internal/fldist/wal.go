package fldist

// The write-ahead log behind WithWAL: everything a restarted (or taking-over)
// process needs to resume the federation at the last commit — committed
// snapshots with the downlink error-feedback residuals per served codec
// variant, and every admission as the push body it arrived as — appended
// as CRC-guarded FWL1 records to one segment file per round.
// recover.go holds the replay side; docs/ARCHITECTURE.md ("Durability") the
// format and the determinism argument.
//
// Durability contract: a commit record is written before the commit's
// snapshot is published to any client, and every admission record the commit
// folded precedes it in the log — so a recoverable commit always has its
// full input history. A process crash (SIGKILL) loses nothing: the kernel
// holds the written pages. Against power loss, the log group-commits: a
// background goroutine fsyncs after commit records, rate-limited to one
// fsync per walGroupSyncEvery (each fsync seals every record before it, so
// commits become power-durable within that interval without ever stalling
// admissions on device latency — an fsync's writeback contends with
// concurrent appends through the filesystem journal, so pacing it is what
// keeps the log off the admission path's critical budget). If power fails
// inside the window, recovery resumes from the last fsynced commit plus the
// admissions logged after it — the same torn-tail case it already handles.
// Only that fsync deletes segments, and only those older than the window of
// the commit it sealed, so the segments a recovery from any commit that may
// survive a power loss reads are still on disk.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fedprophet/internal/quant"
)

const (
	walMagic      = "FWL1"
	walHeaderSize = 21 // magic(4) + type(1) + payload len(4) + seq(8) + crc32c(4)

	// walMaxPayload bounds a record's declared payload length before anything
	// trusts it: record headers read back from disk are as attacker-controlled
	// as wire bytes (a corrupted length must not drive an allocation).
	walMaxPayload = 1 << 30

	walLockName = "wal.lock"
	// walOldLogName is the single-file log of earlier releases: WALExists
	// reports it and RecoverServer refuses it, untouched.
	walOldLogName = "wal.log"
)

// walGroupSyncEvery paces the background fsync: at most one
// fsync starts per interval, coalescing every commit that lands in between.
// The power-loss exposure window is bounded by this interval plus one device
// flush; shrinking it buys tighter durability at the price of more journal
// contention with concurrent appends (see the durability contract above).
const walGroupSyncEvery = 100 * time.Millisecond

// Record types. The meta record is always first in a segment; commit records
// carry full snapshots; admit records the admissions between commits, in
// both aggregation modes; the edge batch record is the single-slot
// parked-push file an Edge keeps (edge.go), reusing the same framing.
const (
	walRecMeta      byte = 1
	walRecCommit    byte = 2
	walRecAdmit     byte = 3
	walRecEdgeBatch byte = 4
)

// ErrWAL is the sentinel wrapped by every WAL decode error, mirroring
// quant.ErrCodec's corruption contract: structurally bad bytes — wrong magic,
// bad CRC, truncated or zero or oversized length — yield an error, never a
// panic, and callers distinguish corruption from IO failures with errors.Is.
var ErrWAL = errors.New("fldist: bad WAL record")

// ErrWALLocked reports that another live process holds the WAL (the flock on
// wal.lock is held). Handoff waits this state out; RecoverServer refuses it.
var ErrWALLocked = errors.New("fldist: WAL held by another process")

// walCRC is the Castagnoli table; CRC32C has hardware support on the
// platforms this serves from.
var walCRC = crc32.MakeTable(crc32.Castagnoli)

// walFile is the sink a WAL writes through — *os.File in production, wrapped
// by the crash-injection tests to fail, short-write, or truncate at exact
// record boundaries (crashtest_test.go).
type walFile interface {
	io.Writer
	Sync() error
	Close() error
}

// walWrapFile, when non-nil, wraps every freshly opened WAL segment. Test
// seam for fault injection; set only by tests in this package, never in
// production.
var walWrapFile func(walFile) walFile

// walMeta is the configuration fingerprint the meta record pins: recovery
// rebuilds a server equivalent to the one that wrote the log, and refuses a
// log whose shape does not match the stored model.
type walMeta struct {
	async     bool
	quorumOrK int // updatesPerRound (sync) or bufferK (buffered)
	maxStale  int
	nParams   int
	nBN       int
}

// walVariantErr is one codec variant's downlink error-feedback residual
// inside a commit record, keyed by its normalized compression parameters.
type walVariantErr struct {
	comp     Compression
	residual []float64
}

// walCommit is a commit record's logical content: the committed snapshot and
// the downlink EF residuals of every variant served in the retiring round.
type walCommit struct {
	round   int
	params  []float64
	bn      []float64
	downErr []walVariantErr
}

// walAdmit is one admission, in either aggregation mode: the client's FPU1
// push body, verbatim — envelope header, params frame (raw, dense or sparse)
// and BN frame exactly as they crossed the network. Replay re-runs the live
// path on it — parseUpdateHeader, decodeUpdate against the base resolveBase
// picks, register — so the admission rules and the arithmetic are the live
// handler's: a raw frame's base is the snapshot of its round, a quantized
// frame's the served model of that round, both rebuilt deterministically
// from the logged commit records.
//
// A delta-downlink push decodes against its codec's delta chain, which the
// log does not hold, so its record also carries that chain base (chain),
// the exact vectors the live decode added the frames onto.
type walAdmit struct {
	seq        uint64
	admitRound int         // its segment's round: the round the registry observed (set by the scan)
	chain      *updateBase // delta-downlink push: the chain base, else nil
	body       []byte      // the FPU1 push body, wire bytes
	enc        []byte      // record scratch, reused across admissions
}

// walEdgeBatch is an edge's parked upstream batch (edge.go): everything a
// restarted edge needs to re-push with the batch's original dedup identity —
// the already-rebased payload, its base round, and the base vectors a
// staleness-409 rebase needs.
type walEdgeBatch struct {
	pushID   int
	pushSeq  int // e.pushSeq after this batch drew its ID
	baseRnd  int
	weight   float64
	payloadP []float64
	payloadB []float64
	baseP    []float64
	baseBN   []float64
}

// ---- record framing --------------------------------------------------------

// appendWALRecord frames one record onto dst:
//
//	magic "FWL1" | type u8 | payload len u32 | seq u64 | crc32c u32 | payload
//
// little-endian throughout; the CRC covers type, length, seq and payload, so
// a flipped bit anywhere but the magic fails the checksum (and a flipped
// magic fails the magic check).
func appendWALRecord(dst []byte, typ byte, seq uint64, payload []byte) []byte {
	start := len(dst)
	dst = reserveWALHeader(dst)
	dst = append(dst, payload...)
	finishWALRecord(dst, start, typ, seq)
	return dst
}

// reserveWALHeader appends a zeroed record header to dst. The caller appends
// the payload in place behind it and then seals the record with
// finishWALRecord — the in-place path the hot appenders use to avoid staging
// a model-sized payload in a second buffer just to copy it into the frame.
func reserveWALHeader(dst []byte) []byte {
	var hdr [walHeaderSize]byte
	return append(dst, hdr[:]...)
}

// finishWALRecord stamps the header reserved at b[start:] — everything past
// it is the payload — filling magic, type, payload length, seq and the CRC.
func finishWALRecord(b []byte, start int, typ byte, seq uint64) {
	plen := len(b) - start - walHeaderSize
	if plen <= 0 || plen > walMaxPayload {
		panic(fmt.Sprintf("fldist: WAL record payload %d bytes outside (0,%d]", plen, walMaxPayload))
	}
	h := b[start : start+walHeaderSize]
	copy(h, walMagic)
	h[4] = typ
	binary.LittleEndian.PutUint32(h[5:9], uint32(plen))
	binary.LittleEndian.PutUint64(h[9:17], seq)
	crc := crc32.Update(0, walCRC, h[4:17])
	crc = crc32.Update(crc, walCRC, b[start+walHeaderSize:])
	binary.LittleEndian.PutUint32(h[17:21], crc)
}

// parseWALRecord parses the record at the head of b, returning its type, seq,
// payload (aliasing b) and total encoded size. Every structural violation —
// short buffer, wrong magic, zero or oversized declared length, truncated
// payload, CRC mismatch — returns an error wrapping ErrWAL; no input panics.
// Recovery treats any such error at the tail of the log as a torn final
// record (the crash hit mid-append) and recovers the intact prefix.
func parseWALRecord(b []byte) (typ byte, seq uint64, payload []byte, size int, err error) {
	if len(b) < walHeaderSize {
		return 0, 0, nil, 0, fmt.Errorf("%w: %d bytes, header needs %d", ErrWAL, len(b), walHeaderSize)
	}
	if string(b[:4]) != walMagic {
		return 0, 0, nil, 0, fmt.Errorf("%w: magic %q, want %q", ErrWAL, b[:4], walMagic)
	}
	typ = b[4]
	plen := int(binary.LittleEndian.Uint32(b[5:9]))
	if plen == 0 {
		return 0, 0, nil, 0, fmt.Errorf("%w: zero-length record", ErrWAL)
	}
	if plen > walMaxPayload {
		return 0, 0, nil, 0, fmt.Errorf("%w: declared payload %d exceeds cap %d", ErrWAL, plen, walMaxPayload)
	}
	if len(b) < walHeaderSize+plen {
		return 0, 0, nil, 0, fmt.Errorf("%w: payload truncated: have %d of %d bytes",
			ErrWAL, len(b)-walHeaderSize, plen)
	}
	seq = binary.LittleEndian.Uint64(b[9:17])
	payload = b[walHeaderSize : walHeaderSize+plen]
	crc := crc32.Update(0, walCRC, b[4:17])
	crc = crc32.Update(crc, walCRC, payload)
	if got := binary.LittleEndian.Uint32(b[17:21]); got != crc {
		return 0, 0, nil, 0, fmt.Errorf("%w: crc %08x, want %08x", ErrWAL, got, crc)
	}
	return typ, seq, payload, walHeaderSize + plen, nil
}

// ---- payload codecs --------------------------------------------------------
//
// Vector payloads are quant raw frames (quant.AppendRaw / DecodeFirst): the
// same byte-stable float64 framing the wire uses, so a logged snapshot
// re-encodes to identical bytes and the corruption checks come for free.

// walFormat is the log's feature level, appended as the meta payload's final
// byte. Format 4 logs every admission, in both aggregation modes, as its push
// body (walAdmit). Formats 1 (a 17-byte meta payload, no format byte) and 2
// hold buffered admissions as deltas against their base, format 3 as wire
// frames beside fields the registry derived — record forms this reader no
// longer replays — so such a log is refused whole at open, before any record
// is read or the tail truncated, and so is a newer format.
const walFormat = 4

func appendWALMeta(dst []byte, m walMeta) []byte {
	mode := byte(0)
	if m.async {
		mode = 1
	}
	dst = append(dst, mode)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.quorumOrK))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.maxStale))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.nParams))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.nBN))
	return append(dst, walFormat)
}

func parseWALMeta(p []byte) (walMeta, error) {
	if len(p) != 17 && len(p) != 18 {
		return walMeta{}, fmt.Errorf("%w: meta payload %d bytes, want 18", ErrWAL, len(p))
	}
	format := byte(1) // a 17-byte payload predates the format byte
	if len(p) == 18 {
		format = p[17]
	}
	switch {
	case format < walFormat:
		return walMeta{}, fmt.Errorf("%w: log format %d holds admissions in an older record form; this binary reads format %d only", ErrWAL, format, walFormat)
	case format > walFormat:
		return walMeta{}, fmt.Errorf("%w: log format %d requires a newer binary (this one reads format %d)", ErrWAL, format, walFormat)
	case p[0] > 1:
		return walMeta{}, fmt.Errorf("%w: meta mode %d", ErrWAL, p[0])
	}
	return walMeta{
		async:     p[0] == 1,
		quorumOrK: int(binary.LittleEndian.Uint32(p[1:5])),
		maxStale:  int(binary.LittleEndian.Uint32(p[5:9])),
		nParams:   int(binary.LittleEndian.Uint32(p[9:13])),
		nBN:       int(binary.LittleEndian.Uint32(p[13:17])),
	}, nil
}

func appendWALCommit(dst []byte, c walCommit) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.round))
	dst = quant.AppendRaw(dst, c.params)
	dst = quant.AppendRaw(dst, c.bn)
	// Variants in codec order (sorted in place), so a commit's bytes are a
	// pure function of its logical content: its writer gathers them from a
	// map, which iterates randomly.
	vs := c.downErr
	sort.Slice(vs, func(i, j int) bool { return vs[i].comp.less(vs[j].comp) })
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vs)))
	for _, v := range vs {
		dst = append(dst, byte(v.comp.Bits))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v.comp.Chunk))
		dst = quant.AppendRaw(dst, v.residual)
	}
	return dst
}

// walFrame pulls one raw quant frame off p, translating codec corruption into
// the WAL's own sentinel.
func walFrame(p []byte) ([]float64, []byte, error) {
	f, rest, err := quant.DecodeFirst(p)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: vector frame: %v", ErrWAL, err)
	}
	if !f.IsRaw() {
		return nil, nil, fmt.Errorf("%w: vector frame quantized (bits %d), want raw", ErrWAL, f.Bits)
	}
	return f.Raw, rest, nil
}

func parseWALCommit(p []byte) (walCommit, error) {
	var c walCommit
	if len(p) < 4 {
		return c, fmt.Errorf("%w: commit payload %d bytes", ErrWAL, len(p))
	}
	c.round = int(binary.LittleEndian.Uint32(p[:4]))
	var err error
	if c.params, p, err = walFrame(p[4:]); err != nil {
		return c, err
	}
	if c.bn, p, err = walFrame(p); err != nil {
		return c, err
	}
	if len(p) < 4 {
		return c, fmt.Errorf("%w: commit variant count truncated", ErrWAL)
	}
	nv := int(binary.LittleEndian.Uint32(p[:4]))
	p = p[4:]
	if nv > maxCodecVariants {
		return c, fmt.Errorf("%w: commit carries %d variants, cap %d", ErrWAL, nv, maxCodecVariants)
	}
	for i := 0; i < nv; i++ {
		if len(p) < 5 {
			return c, fmt.Errorf("%w: commit variant %d truncated", ErrWAL, i)
		}
		v := walVariantErr{comp: Compression{Bits: int(p[0]), Chunk: int(binary.LittleEndian.Uint32(p[1:5]))}}
		if v.residual, p, err = walFrame(p[5:]); err != nil {
			return c, err
		}
		c.downErr = append(c.downErr, v)
	}
	if len(p) != 0 {
		return c, fmt.Errorf("%w: %d trailing bytes after commit payload", ErrWAL, len(p))
	}
	return c, nil
}

// walAdmitChain, an admit record's flag byte, marks a delta-downlink push:
// two raw frames of its chain base (params, BN) precede the push body.
const walAdmitChain byte = 1

func appendWALAdmit(dst []byte, a *walAdmit) []byte {
	if a.chain == nil {
		return append(append(dst, 0), a.body...)
	}
	dst = append(dst, walAdmitChain)
	dst = quant.AppendRaw(dst, a.chain.p)
	dst = quant.AppendRaw(dst, a.chain.bn)
	return append(dst, a.body...)
}

func parseWALAdmit(p []byte) (*walAdmit, error) {
	if len(p) == 0 || p[0]&^walAdmitChain != 0 {
		return nil, fmt.Errorf("%w: admit payload of %d bytes without a valid flag byte", ErrWAL, len(p))
	}
	a, flags := &walAdmit{}, p[0]
	p = p[1:]
	if flags == walAdmitChain {
		a.chain = new(updateBase)
		var err error
		if a.chain.p, p, err = walFrame(p); err != nil {
			return nil, err
		}
		if a.chain.bn, p, err = walFrame(p); err != nil {
			return nil, err
		}
	}
	// The rest of the payload is the push body. Replay validates it as the
	// push handler does; the record CRC already vouches for the bytes.
	a.body = p
	return a, nil
}

func appendWALEdgeBatch(dst []byte, b walEdgeBatch) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.pushID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.pushSeq))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.baseRnd))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.weight))
	dst = quant.AppendRaw(dst, b.payloadP)
	dst = quant.AppendRaw(dst, b.payloadB)
	dst = quant.AppendRaw(dst, b.baseP)
	return quant.AppendRaw(dst, b.baseBN)
}

func parseWALEdgeBatch(p []byte) (walEdgeBatch, error) {
	var b walEdgeBatch
	if len(p) < 20 {
		return b, fmt.Errorf("%w: edge batch payload %d bytes", ErrWAL, len(p))
	}
	b.pushID = int(binary.LittleEndian.Uint32(p[:4]))
	b.pushSeq = int(binary.LittleEndian.Uint32(p[4:8]))
	b.baseRnd = int(binary.LittleEndian.Uint32(p[8:12]))
	b.weight = math.Float64frombits(binary.LittleEndian.Uint64(p[12:20]))
	var err error
	if b.payloadP, p, err = walFrame(p[20:]); err != nil {
		return b, err
	}
	if b.payloadB, p, err = walFrame(p); err != nil {
		return b, err
	}
	if b.baseP, p, err = walFrame(p); err != nil {
		return b, err
	}
	if b.baseBN, p, err = walFrame(p); err != nil {
		return b, err
	}
	if len(p) != 0 {
		return b, fmt.Errorf("%w: %d trailing bytes after edge batch payload", ErrWAL, len(p))
	}
	return b, nil
}

// ---- the log ---------------------------------------------------------------
//
// One segment file per round, named so the directory listing sorts by round
// and is the index: segment r holds the meta record, round r's commit record
// and the admissions logged while r was current. The paced fsync deletes the
// segments older than the staleness window of the commit it sealed.

// walSegName is the file name of round's segment.
func walSegName(round int) string { return fmt.Sprintf("wal-%010d.seg", round) }

// walSegRound parses a segment file name back to its round.
func walSegRound(name string) (r int, ok bool) {
	_, err := fmt.Sscanf(name, "wal-%d.seg", &r)
	return r, err == nil && walSegName(r) == name
}

// walSegments lists dir's segment rounds, oldest first.
func walSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir) // sorted by name, so by round
	if err != nil {
		return nil, err
	}
	var rounds []int
	for _, e := range entries {
		if r, ok := walSegRound(e.Name()); ok {
			rounds = append(rounds, r)
		}
	}
	return rounds, nil
}

// removeSegments deletes dir's segments of the given rounds; one already
// gone is no error.
func removeSegments(dir string, rounds []int) error {
	for _, r := range rounds {
		if err := os.Remove(filepath.Join(dir, walSegName(r))); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// syncDir fsyncs dir, making the names created, renamed or removed in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// wal is the open write-ahead log. Appends are seq-ordered: a writer reserves
// its sequence number inside the admission registry's critical section
// (pendMu), where logical order is decided, then encodes and writes outside
// it — the cond gate below replays the pendMu order onto the log, so log
// order always equals admission order and a commit record is always preceded
// by every admission it folded.
type wal struct {
	dir      string
	lockF    *os.File
	metaRec  []byte // the meta record every segment opens with
	maxStale int

	mu          sync.Mutex
	cond        *sync.Cond
	nextSeq     uint64
	writeSeq    uint64
	sink        walFile   // the current segment, possibly wrapped by the fault-injection seam
	retired     []walFile // replaced segments the next fsync seals and closes
	werr        error     // sticky first write failure; later appends are refused
	closed      bool
	syncPending bool          // a commit landed since the last fsync started
	closeCh     chan struct{} // closed by Close; wakes the paced fsync sleep

	// commitEnc is the reused commit-record scratch. Commits are single-flight
	// — logCommitLocked runs under serveMu and pendMu — so plain reuse between
	// calls is safe, and it spares a model-sized allocation per round.
	commitEnc []byte
	syncing   bool // the background fsync goroutine is alive

	admitPool sync.Pool // *walAdmit, its body and record scratch kept across reuses

	records     atomic.Int64
	commits     atomic.Int64
	admits      atomic.Int64
	bytes       atomic.Int64
	writeErrs   atomic.Int64
	uncommitted atomic.Int64 // admit records since the last commit record
	lastRound   atomic.Int64 // round of the newest commit record written whole

	warnOnce sync.Once
	warnf    func(format string, args ...any)
}

// lockWALDir takes the exclusive flock on dir/wal.lock without blocking.
// The kernel releases a flock when its holder dies — any exit, SIGKILL
// included — which is exactly the property both crash recovery (a dead
// incumbent never wedges the log) and live handoff (release-on-exit is the
// handoff signal) need.
func lockWALDir(dir string) (*os.File, error) {
	lf, err := os.OpenFile(filepath.Join(dir, walLockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(lf.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lf.Close()
		if err == syscall.EWOULDBLOCK {
			return nil, ErrWALLocked
		}
		return nil, err
	}
	return lf, nil
}

// WALExists reports whether dir holds a WAL with any content — a non-empty
// segment, or the single-file wal.log of an earlier release, which
// RecoverServer refuses — the create-or-recover switch for cmd/fldist's -wal
// flag.
func WALExists(dir string) bool {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if _, seg := walSegRound(e.Name()); seg || e.Name() == walOldLogName {
			if fi, err := e.Info(); err == nil && fi.Size() > 0 {
				return true
			}
		}
	}
	return false
}

// createWAL starts a fresh log in dir; the caller's initial commit opens its
// first segment. It refuses a dir that already holds log content —
// recovery, not re-creation, is the path there (RecoverServer).
func createWAL(dir string, m walMeta) (*wal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if WALExists(dir) {
		return nil, fmt.Errorf("fldist: WAL already exists in %s (use RecoverServer)", dir)
	}
	lf, err := lockWALDir(dir)
	if err != nil {
		return nil, err
	}
	return newWAL(dir, lf, m), nil
}

func newWAL(dir string, lf *os.File, m walMeta) *wal {
	w := &wal{
		dir:      dir,
		lockF:    lf,
		metaRec:  appendWALRecord(nil, walRecMeta, 0, appendWALMeta(nil, m)),
		maxStale: m.maxStale,
	}
	w.cond = sync.NewCond(&w.mu)
	w.closeCh = make(chan struct{})
	w.admitPool.New = func() any { return new(walAdmit) }
	return w
}

// setSegmentLocked makes f the segment appends go to, retiring the previous
// one to the next fsync.
func (w *wal) setSegmentLocked(f *os.File) {
	if w.sink != nil {
		w.retired = append(w.retired, w.sink)
	}
	w.sink = walFile(f)
	if walWrapFile != nil {
		w.sink = walWrapFile(w.sink)
	}
}

// reserve claims the next sequence number. Callers on the admission path
// invoke it while holding pendMu, so the sequence order is the admission
// order; the write gate then makes it the file order too.
func (w *wal) reserve() uint64 {
	w.mu.Lock()
	s := w.nextSeq
	w.nextSeq++
	w.mu.Unlock()
	return s
}

// enter waits until every earlier reservation has hit the log and returns
// with w.mu held — slot seq's records go in now — and with the error that
// refuses them: the sticky first failure, whose record boundary is the end
// of the recoverable log, or a closed log. leave frees the slot. The slot
// always advances, so a failure never wedges later writers on the gate.
func (w *wal) enter(seq uint64) error {
	w.mu.Lock()
	for w.writeSeq != seq {
		w.cond.Wait()
	}
	if w.werr == nil && w.closed {
		return errors.New("fldist: WAL closed")
	}
	return w.werr
}

func (w *wal) leave() {
	w.writeSeq++
	w.cond.Broadcast()
	w.mu.Unlock()
}

// failLocked makes err the log's sticky failure: every later append is
// refused with it rather than scribbling records after a hole.
func (w *wal) failLocked(err error) error {
	w.werr = err
	w.writeErrs.Add(1)
	return err
}

// writeLocked writes one framed record to the current segment. The
// uncommitted-admissions gauge is maintained here, under the write gate, so
// it tracks the exact record order on disk.
func (w *wal) writeLocked(typ byte, rec []byte) error {
	n, err := w.sink.Write(rec)
	if err == nil && n < len(rec) {
		err = io.ErrShortWrite
	}
	if err != nil {
		return w.failLocked(err)
	}
	switch typ {
	case walRecAdmit:
		w.uncommitted.Add(1)
	case walRecCommit:
		w.uncommitted.Store(0)
	}
	w.records.Add(1)
	w.bytes.Add(int64(len(rec)))
	return nil
}

// newAdmit leases an admission capture from the pool, its body scratch
// emptied for a fresh tee.
func (w *wal) newAdmit() *walAdmit {
	a := w.admitPool.Get().(*walAdmit)
	a.body = a.body[:0]
	a.chain = nil
	return a
}

// releaseAdmit returns a capture to the pool.
func (w *wal) releaseAdmit(a *walAdmit) {
	w.admitPool.Put(a)
}

// appendAdmit encodes and appends one admission record, returning the capture
// to the pool. Called outside every server lock; ordering is carried by the
// seq reserved at admission.
func (w *wal) appendAdmit(a *walAdmit) error {
	enc := reserveWALHeader(a.enc[:0])
	enc = appendWALAdmit(enc, a)
	finishWALRecord(enc, 0, walRecAdmit, a.seq)
	a.enc = enc
	err := w.enter(a.seq)
	if err == nil {
		err = w.writeLocked(walRecAdmit, a.enc)
	}
	w.leave()
	w.releaseAdmit(a)
	if err != nil {
		w.warnWriteErr(err)
		return err
	}
	w.admits.Add(1)
	return nil
}

// appendCommit opens round c.round's segment and writes its meta and commit
// records there. Called with serveMu and pendMu held, just before the
// commit's snapshot is published — log-then-publish is the write-ahead
// property. Every admission the commit folded precedes it in the log.
func (w *wal) appendCommit(seq uint64, c walCommit) error {
	rec := reserveWALHeader(w.commitEnc[:0])
	rec = appendWALCommit(rec, c)
	finishWALRecord(rec, 0, walRecCommit, seq)
	w.commitEnc = rec
	err := w.enter(seq)
	if err == nil {
		var f *os.File
		f, err = os.OpenFile(filepath.Join(w.dir, walSegName(c.round)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			w.failLocked(err)
		} else {
			w.setSegmentLocked(f)
			err = w.writeLocked(walRecMeta, w.metaRec)
		}
	}
	if err == nil {
		err = w.writeLocked(walRecCommit, rec)
	}
	if err == nil {
		// Group commit: the fsync that seals this commit — and every
		// admission before it — runs on a background goroutine, so the
		// admission pipeline is never stalled on device flush latency. Until
		// it lands, a power loss falls back to the previous commit plus the
		// admissions logged after it: the torn-tail case recovery handles.
		w.lastRound.Store(int64(c.round))
		w.scheduleSyncLocked()
	}
	w.leave()
	if err != nil {
		w.warnWriteErr(err)
		return err
	}
	w.commits.Add(1)
	return nil
}

// scheduleSyncLocked marks the log dirty and ensures the background fsync
// goroutine is running. Caller holds w.mu. The single goroutine coalesces
// bursts: however many commits land while one fsync is in flight, one more
// fsync seals them all.
func (w *wal) scheduleSyncLocked() {
	w.syncPending = true
	if !w.syncing {
		w.syncing = true
		go w.runSync()
	}
}

// runSync is the background group-commit fsync loop: seal, then — if more
// commits landed meanwhile — wait out the pacing interval and seal again.
// The pacing matters for throughput, not just politeness: an fsync writes
// back every dirty log page and holds the filesystem journal while it does,
// which stalls concurrent record appends; one paced fsync seals a burst of
// rounds at a fraction of that contention. A sync failure is sticky like a
// write failure — later appends are refused at the same boundary recovery
// will find. Close waits for this goroutine (via syncing/cond) before
// closing the segment, and wakes the pacing sleep through closeCh.
func (w *wal) runSync() {
	w.mu.Lock()
	for w.syncPending && w.werr == nil && !w.closed {
		w.syncPending = false
		retired, cur, round := w.retired, w.sink, int(w.lastRound.Load())
		w.retired = nil
		w.mu.Unlock()
		//lint:ignore determinism group-sync pacing only; record contents and order are clock-free
		start := time.Now()
		err := w.seal(retired, cur, round)
		if err == nil {
			//lint:ignore determinism group-sync pacing only; record contents and order are clock-free
			if d := walGroupSyncEvery - time.Since(start); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-w.closeCh:
					t.Stop()
				}
			}
		}
		w.mu.Lock()
		if err != nil && w.werr == nil {
			w.failLocked(err)
			w.mu.Unlock()
			w.warnWriteErr(err)
			w.mu.Lock()
		}
	}
	w.syncing = false
	w.cond.Broadcast()
	w.mu.Unlock()
}

// seal makes the log durable up to the commit of round — fsyncing and
// closing the retired segments, fsyncing the current one and the directory
// that names them — and then deletes every segment older than that
// commit's staleness window: recovery from it or from any later commit
// never reads them.
func (w *wal) seal(retired []walFile, cur walFile, round int) error {
	var err error
	for _, f := range retired {
		if serr := f.Sync(); err == nil {
			err = serr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = cur.Sync()
	}
	if err == nil {
		err = syncDir(w.dir)
	}
	if err != nil {
		return err
	}
	rounds, err := walSegments(w.dir)
	if i := slices.IndexFunc(rounds, func(r int) bool { return r >= round-w.maxStale }); err == nil && i > 0 {
		err = removeSegments(w.dir, rounds[:i])
	}
	return err
}

// warnWriteErr reports the first WAL write failure once. The server keeps
// serving — degraded to in-memory durability — and recovery recovers the
// intact prefix; Stats carries the error count.
func (w *wal) warnWriteErr(err error) {
	w.warnOnce.Do(func() {
		f := w.warnf
		if f == nil {
			return
		}
		f("fldist: WAL write failed, continuing without durability (recovery will see state up to the last intact record): %v", err)
	})
}

// Close seals the log — the directory then holds the staleness window's
// segments and nothing older — closes it and releases the lock file (and
// with it the flock — the handoff signal). Idempotent.
func (w *wal) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	close(w.closeCh) // wake a paced fsync sleep; the loop re-checks closed
	for w.syncing {
		w.cond.Wait()
	}
	retired, cur := w.retired, w.sink
	w.mu.Unlock()
	var err error
	if cur != nil {
		err = w.seal(retired, cur, int(w.lastRound.Load()))
		if cerr := cur.Close(); err == nil {
			err = cerr
		}
	}
	if w.lockF != nil {
		w.lockF.Close() // closing drops the flock
	}
	return err
}

// stats snapshots the log's counters for the /stats WAL section.
func (w *wal) stats() *WALStats {
	w.mu.Lock()
	broken := w.werr != nil
	w.mu.Unlock()
	return &WALStats{
		Dir:             w.dir,
		Records:         w.records.Load(),
		Commits:         w.commits.Load(),
		Admits:          w.admits.Load(),
		Bytes:           w.bytes.Load(),
		WriteErrors:     w.writeErrs.Load(),
		Broken:          broken,
		LastCommitRound: w.lastRound.Load(),
		PendingAdmits:   w.uncommitted.Load(),
	}
}

// replaceFile atomically replaces dir/name with data — temp file in dir,
// write, fsync, close, rename, fsync dir — so a crash or power loss at any
// instant leaves either the previous file or the new one whole. The temp
// file never outlives a failure.
func replaceFile(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

// ---- edge parked-batch slot ------------------------------------------------
//
// An edge aggregator's durable state is a single parked upstream batch, not a
// growing log: at any instant it has at most one combined cohort delta that
// has been committed locally but not yet acknowledged upstream. That batch is
// kept in a one-record file (edge.wal) written whole via temp + rename —
// atomically replaced when a staleness rebase changes the payload, removed
// when the upstream acknowledges the push. A restarted edge re-pushes the
// parked batch with its original pushID, and the upstream's (round, pushID)
// dedup horizon (EdgeIDSpan) turns the replay into a duplicate 200 if the
// first attempt had in fact landed — re-push is idempotent, so the slot never
// needs to know whether the crash hit before or after the acknowledgement.

// edgeWALName is the single-slot parked-batch file inside an edge's WAL dir.
const edgeWALName = "edge.wal"

// writeEdgeWAL atomically replaces dir's parked-batch slot with b.
func writeEdgeWAL(dir string, b walEdgeBatch) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fldist: edge wal: %w", err)
	}
	rec := appendWALRecord(nil, walRecEdgeBatch, 0, appendWALEdgeBatch(nil, b))
	if err := replaceFile(dir, edgeWALName, rec); err != nil {
		return fmt.Errorf("fldist: edge wal: %w", err)
	}
	return nil
}

// readEdgeWAL loads dir's parked batch. ok is false when the slot is empty
// (no batch was parked, or the previous run pushed and cleared it); a present
// but corrupt slot is an ErrWAL error, never a silently dropped batch.
func readEdgeWAL(dir string) (b walEdgeBatch, ok bool, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, edgeWALName))
	if os.IsNotExist(err) {
		return b, false, nil
	}
	if err != nil {
		return b, false, fmt.Errorf("fldist: edge wal: %w", err)
	}
	typ, _, payload, size, err := parseWALRecord(raw)
	if err != nil {
		return b, false, err
	}
	if typ != walRecEdgeBatch || size != len(raw) {
		return b, false, fmt.Errorf("%w: edge wal slot holds record type %d (%d of %d bytes)", ErrWAL, typ, size, len(raw))
	}
	b, err = parseWALEdgeBatch(payload)
	if err != nil {
		return b, false, err
	}
	return b, true, nil
}

// clearEdgeWAL empties dir's parked-batch slot. Missing is success.
func clearEdgeWAL(dir string) error {
	err := os.Remove(filepath.Join(dir, edgeWALName))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("fldist: edge wal: %w", err)
	}
	return nil
}
