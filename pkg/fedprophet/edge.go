package fedprophet

import (
	"time"

	"fedprophet/internal/fldist"
)

// Hierarchical aggregation: edge aggregators stand between client cohorts
// and the root ParamServer. An edge serves its cohort exactly like a
// ParamServer (same routes, same wire protocol, buffered admission) and
// pre-folds the cohort's admitted updates into one combined delta pushed
// upstream as an ordinary wire update — the root cannot tell an edge from a
// big client, topologies nest, and a 2-tier tree commits the same model the
// flat fleet would have over the same admitted multiset. See
// docs/ARCHITECTURE.md "Hierarchical aggregation".

type (
	// EdgeAggregator is the middle tier: a buffered parameter server for its
	// cohort and a client of its upstream. Build with NewEdgeAggregator,
	// Start it (or let Serve do it), and point cohort clients at Handler().
	// Shutdown via context cancellation drains: buffered cohort work is
	// pushed upstream before Serve returns.
	EdgeAggregator = fldist.Edge
	// EdgeAggregatorOption configures NewEdgeAggregator.
	EdgeAggregatorOption = fldist.EdgeOption
)

// WithEdgeTier names the edge's cohort; the name appears in the /stats
// upstream section.
func WithEdgeTier(name string) EdgeAggregatorOption { return fldist.WithEdgeName(name) }

// WithEdgeFlush sets the flush policy: the edge pushes its combined cohort
// delta upstream once k updates have buffered, or once the oldest buffered
// update is age old — whichever comes first. age 0 disables the age
// trigger. Defaults: k 8, age 500ms.
func WithEdgeFlush(k int, age time.Duration) EdgeAggregatorOption {
	return fldist.WithEdgeFlush(k, age)
}

// WithEdgeStalenessWindow sets the staleness window (in the edge's local
// commit rounds) for cohort admissions, exactly as WithBufferedAggregation's
// maxStaleness does for a root. Default 8.
func WithEdgeStalenessWindow(maxStaleness int) EdgeAggregatorOption {
	return fldist.WithEdgeWindow(maxStaleness)
}

// EdgeIDSpan is the block of upstream client IDs each edge owns: an edge
// whose upstream ID is id pushes its committed batches under IDs in
// [id, id+EdgeIDSpan), cycling per batch so two batches pushed from one
// base round never collide in the upstream's per-(round, client) dedup.
const EdgeIDSpan = fldist.EdgeIDSpan

// WithEdgeUpstreamID fixes the base of the EdgeIDSpan-sized client ID block
// the edge pushes upstream under. Every edge and direct client sharing an
// upstream needs a disjoint block; by default edges draw EdgeIDSpan-strided
// blocks from 1<<20 up — within one process only, so multi-process
// deployments must assign explicit disjoint blocks.
func WithEdgeUpstreamID(id int) EdgeAggregatorOption { return fldist.WithEdgeClientID(id) }

// WithEdgeWAL makes the edge's parked upstream batch crash-safe: a committed
// cohort batch whose upstream push has not been acknowledged is persisted in
// dir, and a restarted edge re-pushes it under its original dedup identity —
// the upstream drops the replay as a duplicate if the first attempt had
// landed, so a crash on either side of the acknowledgement loses nothing and
// double-counts nothing.
func WithEdgeWAL(dir string) EdgeAggregatorOption { return fldist.WithEdgeWAL(dir) }

// NewEdgeAggregator builds an edge for the given upstream base URL (a root
// ParamServer or another edge). Like NewParamServer it panics on
// nonsensical configuration; the first upstream pull happens in Start.
func NewEdgeAggregator(upstream string, opts ...EdgeAggregatorOption) *EdgeAggregator {
	return fldist.NewEdge(upstream, opts...)
}
