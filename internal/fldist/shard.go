package fldist

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedprophet/internal/fl"
)

// The sharded aggregation plane of the parameter server. The flat weight
// vector is split into nShards contiguous ranges; each shard owns its range's
// pending contributions under its own lock, so concurrent /update handlers
// never serialize on a model-sized critical section. The global model itself
// is a copy-on-write snapshot: handlers read the current *snapshot lock-free
// via an atomic pointer, and only the round-advance barrier installs a new
// one. See docs/ARCHITECTURE.md ("Sharded aggregation") for the lock
// hierarchy and the determinism argument.

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

// contrib is one admitted client's contribution: baseRound tags the round of
// the base the client trained from, weight is the staleness-discounted
// effective weight, and vals and base are the whole reconstructed update and
// the exact base values it is a delta against — each shard folds only its
// own range of them. The synchronous fold reads only (clientID, weight,
// vals).
type contrib struct {
	clientID  int
	baseRound int
	weight    float64
	vals      []float64
	base      []float64
}

// shard owns one contiguous range [lo, hi) of the flat parameter vector (or
// the whole BN-statistics vector) and the round's pending contributions for
// it. Its mutex guards only pend: appends are O(1) pointer pushes, and the
// O(range) fold work happens once per round inside fold.
type shard struct {
	mu   sync.Mutex
	lo   int
	hi   int
	pend []contrib
}

// add appends one contribution for this shard's range.
func (sh *shard) add(c contrib) {
	sh.mu.Lock()
	sh.pend = append(sh.pend, c)
	sh.mu.Unlock()
}

// fold runs a commit's fold kernel over the shard's range of dst (zeroed on
// entry) and resets the pending list: with cur nil, the synchronous quorum's
// FedAvg fold Σwp/Σw (fl.FoldAverage); otherwise buffered mode's FedBuff
// fold of the staleness-weighted deltas onto cur, cur + Σw(p−base)/Σw
// (fl.FoldDelta). Contributions fold in ascending (baseRound, clientID)
// order — the per-(baseRound, client) dedup horizon makes that key unique
// within a buffer, and under the quorum's single base round it is clientID
// order — so the committed model is a pure function of the admitted set,
// independent of arrival order, shard count and GOMAXPROCS. The kernel is
// fl's own range form, so the quorum's commit is fl.WeightedAverage over the
// same clients in ID order by construction.
func (sh *shard) fold(dst, cur []float64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.sortPend()
	weights := make([]float64, len(sh.pend))
	vals := make([][]float64, len(sh.pend))
	bases := make([][]float64, len(sh.pend))
	for k, c := range sh.pend {
		weights[k], vals[k], bases[k] = c.weight, c.vals, c.base
	}
	if cur == nil {
		fl.FoldAverage(dst, vals, weights, sh.lo, sh.hi)
	} else {
		fl.FoldDelta(dst, cur, vals, bases, weights, sh.lo, sh.hi)
	}
	sh.reset()
}

// sortPend orders the pending list by (baseRound, clientID) — a key the
// dedup horizon makes unique within a buffer. Insertion sort: pending lists
// are buffer-sized (tens of entries), and it avoids sort.Slice's per-call
// closure allocation on the commit path. Caller holds sh.mu.
func (sh *shard) sortPend() {
	for i := 1; i < len(sh.pend); i++ {
		for j := i; j > 0 && less(sh.pend[j], sh.pend[j-1]); j-- {
			sh.pend[j], sh.pend[j-1] = sh.pend[j-1], sh.pend[j]
		}
	}
}

// less orders contributions by (baseRound, clientID).
func less(a, b contrib) bool {
	if a.baseRound != b.baseRound {
		return a.baseRound < b.baseRound
	}
	return a.clientID < b.clientID
}

// reset keeps the pending list's backing array for next round's appends but
// drops the references so released update buffers are not pinned past the
// fold.
func (sh *shard) reset() {
	for i := range sh.pend {
		sh.pend[i] = contrib{}
	}
	sh.pend = sh.pend[:0]
}

// updateBuf is a pooled pair of decoded-update vectors: the reconstructed
// full parameter and BN values of one client's push. Buffers are leased from
// Server.bufPool for the decode, parked in the shards' pending lists until
// the round folds, and returned to the pool afterwards — the steady-state
// push path allocates no model-sized memory.
type updateBuf struct {
	params []float64
	bn     []float64
}

// maxShards caps the shard count: beyond this, per-update bookkeeping
// outweighs any contention win.
const maxShards = 64

// serverConfig carries NewServer's optional settings.
type serverConfig struct {
	shards   int
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
// admitted multiset — bit-identical across arrival order, shard count and
// GOMAXPROCS (TestAsyncArrivalOrderInvariance).
func WithBufferedAggregation(k, maxStaleness int) ServerOption {
	return func(c *serverConfig) {
		c.bufferK = k
		c.maxStale = maxStaleness
	}
}

// ServerOption configures NewServer.
type ServerOption func(*serverConfig)

// WithShards sets the number of parameter shards the server aggregates
// under. More shards admit more concurrent pushes without lock contention;
// the aggregate is bit-identical at any shard count. Values < 1 select the
// default (GOMAXPROCS, capped at 64).
func WithShards(n int) ServerOption {
	return func(c *serverConfig) { c.shards = n }
}

// WithWAL makes the server crash-safe: every commit's snapshot (and, in
// buffered mode, every admission between commits) is appended to a
// write-ahead log in dir before it takes effect, so a process that dies —
// SIGKILL included — resumes the federation at its last commit via
// RecoverServer (or hands it to a live successor via Handoff). The dir must
// not already hold a WAL; NewServer panics otherwise (recovery, not
// re-creation, is the path there — cmd/fldist switches on WALExists). See
// docs/ARCHITECTURE.md ("Durability") for the record format, fsync pacing
// and recovery guarantees.
func WithWAL(dir string) ServerOption {
	return func(c *serverConfig) { c.walDir = dir }
}

// withWarnf routes the server's operational warnings (WAL write failures,
// lossy shutdowns) somewhere other than the process log. Test seam.
func withWarnf(f func(format string, args ...any)) ServerOption {
	return func(c *serverConfig) { c.warnf = f }
}

// resolveShards clamps the configured shard count against the model size.
func resolveShards(configured, nParams int) int {
	n := configured
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > maxShards {
		n = maxShards
	}
	if n > nParams {
		n = nParams
	}
	if n < 1 {
		n = 1
	}
	return n
}

// makeShards splits [0, n) into count contiguous, nearly equal ranges.
func makeShards(n, count int) []shard {
	shards := make([]shard, count)
	base, rem := n/count, n%count
	lo := 0
	for i := range shards {
		size := base
		if i < rem {
			size++
		}
		shards[i] = shard{lo: lo, hi: lo + size}
		lo += size
	}
	return shards
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
