package fldist

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedprophet/internal/fl"
)

// The aggregation plane of the parameter server. Every admission appends one
// contribution to the admission registry's pending list; a commit sorts that
// list once and folds it into a fresh snapshot, splitting the flat weight
// vector into contiguous ranges folded concurrently. The global model itself
// is a copy-on-write snapshot: handlers read the current *snapshot lock-free
// via an atomic pointer, and only the round-advance barrier installs a new
// one. See docs/ARCHITECTURE.md ("Aggregation") for the lock hierarchy and
// the determinism argument.

// snapshot is one round's immutable global model state. Nothing mutates a
// snapshot after it is published; pulls, pushes and stats all read it without
// locks. Snapshots are always handled by pointer (rawOnce makes a value copy
// a vet error), and the raw pull body is built lazily once per snapshot
// (rawBody in server.go) so raw pulls after the first are one write of a
// shared immutable slice.
//
// The compressed pull bodies belong to the snapshot the same way: served
// holds the codec variants built (or building) on it, and downErr the
// downlink residual each variant's build folds in — everything a build
// reads, so a variant of any snapshot, current or retained, builds the same
// bytes whenever it is first asked for (getServed in server.go).
type snapshot struct {
	round  int
	params []float64
	bn     []float64

	rawOnce sync.Once
	raw     []byte

	// downErr is set before the snapshot is published — by the retire of its
	// parent (retireRoundLocked) or by recovery from its commit record — and
	// never changes after.
	downErr map[Compression]residual

	// served is filled front to back, one slot per variant, under
	// Server.serveMu and read lock-free; a nil slot ends the list. The fixed
	// size is the per-round variant bound.
	served [maxCodecVariants]atomic.Pointer[servedEntry]
}

// residual is one codec variant's downlink error-feedback input on a
// snapshot. carried marks a vector the parent snapshot never built from, so
// handed on unconsumed — a late build on the parent may still read it.
type residual struct {
	v       []float64
	carried bool
}

// contrib is one admitted client's contribution, the pending list's entry:
// baseRound tags the round of the base the client trained from, weight is
// the staleness-discounted effective weight, buf holds the whole
// reconstructed update (leased from bufPool, released by the commit's
// reset), and baseP/baseBN are the exact base values it is a delta against.
// The synchronous fold reads only (clientID, weight, buf).
type contrib struct {
	clientID  int
	baseRound int
	weight    float64
	buf       *updateBuf
	baseP     []float64
	baseBN    []float64
}

// foldPending folds the pending list into next — params and BN stats, both
// zeroed on entry — with one kernel per commit: with cur nil, the
// synchronous quorum's FedAvg fold Σwp/Σw (fl.FoldAverage); otherwise
// buffered mode's FedBuff fold of the staleness-weighted deltas onto cur,
// cur + Σw(p−base)/Σw (fl.FoldDelta). The list is sorted once, by
// (baseRound, clientID) — the per-(baseRound, client) dedup horizon makes
// that key unique within a buffer, and under the quorum's single base round
// it is clientID order — and the parameter vector is folded over foldRanges
// contiguous ranges concurrently, BN as one more task. Every element sums
// the same contributions in the same order whatever the range count, so the
// committed model is a pure function of the admitted set, independent of
// arrival order, range count and GOMAXPROCS, and the quorum's commit is
// fl.WeightedAverage over the same clients in ID order by construction.
// Caller runs under the registry's freeze (see commit).
func (s *Server) foldPending(next *snapshot, curP, curBN []float64) {
	pend := s.pending
	for i := 1; i < len(pend); i++ { // insertion sort: buffer-sized, no closure allocation
		for j := i; j > 0 && less(pend[j], pend[j-1]); j-- {
			pend[j], pend[j-1] = pend[j-1], pend[j]
		}
	}
	weights := make([]float64, len(pend))
	pv, pb := make([][]float64, len(pend)), make([][]float64, len(pend))
	bv, bb := make([][]float64, len(pend)), make([][]float64, len(pend))
	for k, c := range pend {
		weights[k] = c.weight
		pv[k], bv[k] = c.buf.params, c.buf.bn
		pb[k], bb[k] = c.baseP, c.baseBN
	}
	n, ranges := len(next.params), s.foldRanges()
	fanOut(ranges+1, func(i int) {
		dst, cur, v, b, lo, hi := next.params, curP, pv, pb, i*n/ranges, (i+1)*n/ranges
		if i == ranges {
			dst, cur, v, b, lo, hi = next.bn, curBN, bv, bb, 0, len(next.bn)
		}
		if cur == nil {
			fl.FoldAverage(dst, v, weights, lo, hi)
		} else {
			fl.FoldDelta(dst, cur, v, b, weights, lo, hi)
		}
	})
}

// less orders contributions by (baseRound, clientID).
func less(a, b contrib) bool {
	if a.baseRound != b.baseRound {
		return a.baseRound < b.baseRound
	}
	return a.clientID < b.clientID
}

// updateBuf is a pooled pair of decoded-update vectors: the reconstructed
// full parameter and BN values of one client's push. Buffers are leased from
// Server.bufPool for the decode, parked in the pending list until the round
// folds, and returned to the pool afterwards — the steady-state
// push path allocates no model-sized memory.
type updateBuf struct {
	params []float64
	bn     []float64
}

// serverConfig carries NewServer's optional settings.
type serverConfig struct {
	segments int
	bufferK  int
	maxStale int
	walDir   string
	warnf    func(format string, args ...any)
}

// maxStalenessLimit bounds the buffered-mode staleness window: the server
// retains one model snapshot (plus served codec bodies) per round inside the
// window, so an unbounded window would be an unbounded memory commitment.
const maxStalenessLimit = 64

// WithBufferedAggregation switches the server from the synchronous quorum to
// FedBuff-style buffered bounded-staleness aggregation: an update whose base
// round is at most maxStaleness rounds behind the current round is admitted
// (down-weighted by 1/(1+staleness)) instead of rejected with 409, and a new
// global model commits whenever k admitted updates have buffered — there is
// no round barrier, so fleet throughput is no longer gated by the slowest
// client and a straggler's training pass is never thrown away while it stays
// inside the window. k replaces updatesPerRound as the commit threshold.
// maxStaleness must be in [0, 64] (each retained round costs one model
// snapshot of server memory); 0 tolerates no staleness but still commits in
// buffers of k. The committed model is a pure function of each buffer's
// admitted multiset — bit-identical across arrival order, fold range count
// and GOMAXPROCS (TestAsyncArrivalOrderInvariance).
func WithBufferedAggregation(k, maxStaleness int) ServerOption {
	return func(c *serverConfig) {
		c.bufferK = k
		c.maxStale = maxStaleness
	}
}

// ServerOption configures NewServer.
type ServerOption func(*serverConfig)

// WithWAL makes the server crash-safe: every commit's snapshot and every
// admission between commits, in either aggregation mode, is appended to a
// write-ahead log in dir before it takes effect, so a process that dies —
// SIGKILL included — resumes the federation at its last commit via
// RecoverServer (or hands it to a live successor via Handoff). The log keeps
// one segment file per round, only the staleness window's, however long the
// federation runs. The dir must not already hold a WAL; NewServer panics
// otherwise (recovery, not re-creation, is the path there — cmd/fldist
// switches on WALExists). See docs/ARCHITECTURE.md ("Durability") for the
// segment layout, record format, fsync pacing and recovery guarantees.
func WithWAL(dir string) ServerOption {
	return func(c *serverConfig) { c.walDir = dir }
}

// withWarnf routes the server's operational warnings (WAL write failures,
// lossy shutdowns) somewhere other than the process log. Test seam.
func withWarnf(f func(format string, args ...any)) ServerOption {
	return func(c *serverConfig) { c.warnf = f }
}

// withSegments pins how many segments a served build or delta-chain frame
// encodes in and how many ranges a commit folds the parameter vector over;
// 0 (the default) tracks GOMAXPROCS. Served bytes and committed models are
// bit-identical at any value (TestServeSegmentInvariance,
// TestShardCountInvariance). Test seam.
func withSegments(n int) ServerOption {
	return func(c *serverConfig) { c.segments = n }
}

// latRingSize is the sliding window of admit-latency samples backing the
// /stats percentiles.
const latRingSize = 4096

// latRing is a lock-free sliding window of duration samples: writers claim a
// slot with one atomic add and store racily-but-atomically; readers copy the
// window and sort. Good enough for operational percentiles, zero contention
// on the admit path.
type latRing struct {
	n   atomic.Uint64
	buf [latRingSize]atomic.Int64
}

// record adds one sample.
func (l *latRing) record(d time.Duration) {
	i := l.n.Add(1) - 1
	l.buf[i%latRingSize].Store(int64(d))
}

// percentiles returns the p50 and p99 of the current window, in
// microseconds. Both are 0 before any sample.
func (l *latRing) percentiles() (p50, p99 float64) {
	n := l.n.Load()
	if n == 0 {
		return 0, 0
	}
	if n > latRingSize {
		n = latRingSize
	}
	samples := make([]int64, n)
	for i := range samples {
		samples[i] = l.buf[i].Load()
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	pick := func(q float64) float64 {
		idx := int(q * float64(len(samples)-1))
		return float64(samples[idx]) / float64(time.Microsecond)
	}
	return pick(0.50), pick(0.99)
}
