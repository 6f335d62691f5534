package fedprophet

import (
	"context"
	"fmt"

	"fedprophet/internal/fldist"
	"fedprophet/internal/nn"
)

// The distributed deployment surface: a real HTTP parameter server for
// fleets that federate over the network instead of in-process. The server
// speaks the wire protocol of docs/WIRE.md (one envelope format carrying
// exact raw frames or compressed error-fed deltas, negotiated per client):
// concurrent pushes decode and admit in parallel, a stats poll never blocks
// aggregation, and a commit folds over one range of the parameter vector
// per processor with a bit-identical aggregate at any range count.

type (
	// ParamServer is the HTTP parameter server of the distributed
	// transport: a synchronous FedAvg aggregator with streaming, parallel
	// aggregation. Serve its Handler() (or call ListenAndServe) and point
	// fldist clients — or any client implementing docs/WIRE.md — at it.
	ParamServer = fldist.Server
	// ParamServerOption configures NewParamServer.
	ParamServerOption = fldist.ServerOption
	// ServerStats is the GET /stats payload: traffic counters split raw vs
	// compressed, round progress, the commit fold's range count, and
	// per-update admit-latency percentiles.
	ServerStats = fldist.Stats
)

// WithBufferedAggregation switches the parameter server from the
// synchronous quorum to FedBuff-style buffered bounded-staleness
// aggregation: a client update is admitted as long as the round it trained
// from is at most maxStaleness rounds behind the server, down-weighted by
// 1/(1+staleness), and a new global model commits whenever k admitted
// updates have buffered. There is no round barrier, so fleet throughput is
// not gated by the slowest client and a straggler's training pass inside
// the window is never thrown away. k replaces updatesPerRound as the commit
// threshold; maxStaleness must be in [0, 64] (each tolerated round retains
// one model snapshot server-side). Fleet clients need no mode switch: the
// one client loop (fldist.Client.RunRounds, cmd/fldist -connect) waits only
// for a commit past its own push, so against this server it pipelines
// pull → train → push; ServerStats gains a per-staleness admission
// histogram. The wire protocol is unchanged
// — updates always carried their base round.
func WithBufferedAggregation(k, maxStaleness int) ParamServerOption {
	return fldist.WithBufferedAggregation(k, maxStaleness)
}

// WithServerWAL makes the parameter server crash-safe: every admission and
// every commit, in either aggregation mode, is appended to a write-ahead log
// in dir before it takes effect. A process that dies — power loss, SIGKILL,
// panic — resumes the federation at its last commit via
// RecoverParamServer, replaying the admissions its buffer held; clients never
// observe a model older than one they already pulled. The log keeps one
// segment file per round and only the staleness window's newest, so its
// size does not grow with the number of rounds. The dir must not already
// hold a WAL (recover, don't re-create). See docs/ARCHITECTURE.md
// ("Durability") for the segment layout, record format, fsync pacing and
// guarantees.
func WithServerWAL(dir string) ParamServerOption { return fldist.WithWAL(dir) }

// ParamServerWALExists reports whether dir holds a write-ahead log — the
// switch between NewParamServer(..., WithServerWAL(dir)) on first boot and
// RecoverParamServer(dir) on every boot after.
func ParamServerWALExists(dir string) bool { return fldist.WALExists(dir) }

// RecoverParamServer rebuilds a parameter server from the write-ahead log in
// dir: the model resumes at the last intact commit, admissions logged after
// it re-enter the buffer (or quorum), and the log stays open for the
// recovered server's own appends. The aggregation mode, commit threshold and
// staleness window come from the log itself. It fails with an error while
// another live process still holds the log — use HandoffParamServer to wait
// that out.
func RecoverParamServer(dir string) (*ParamServer, error) {
	return fldist.RecoverServer(dir)
}

// HandoffParamServer blocks until the process currently holding the WAL in
// dir releases it (exits, crashes, or closes its server), then recovers and
// returns the server — the live-handoff path: start the successor with
// HandoffParamServer, stop the incumbent, and the federation resumes at its
// last commit with no state lost.
func HandoffParamServer(ctx context.Context, dir string) (*ParamServer, error) {
	return fldist.Handoff(ctx, dir)
}

// NewParamServer builds a parameter server seeded with the given global
// state — typically ExportModelState of a trained Result, or the export of a
// freshly built model for training from scratch. updatesPerRound is the
// synchronous-round quorum: the server aggregates once that many distinct
// clients have pushed for the current round. Drive it with
// (*ParamServer).ListenAndServe or mount (*ParamServer).Handler on an
// existing mux.
func NewParamServer(initParams, initBN []float64, updatesPerRound int, opts ...ParamServerOption) *ParamServer {
	return fldist.NewServer(initParams, initBN, updatesPerRound, opts...)
}

// ExportModelState flattens a Result's trained global model into the
// parameter and BatchNorm-statistics vectors a ParamServer (or a checkpoint)
// is seeded with. It errors on a result without a model (a run canceled
// before any aggregation).
func ExportModelState(res *Result) (params, bn []float64, err error) {
	if res == nil || res.Model == nil {
		return nil, nil, fmt.Errorf("fedprophet: result carries no trained model")
	}
	return nn.ExportParams(res.Model), nn.ExportBNStats(res.Model), nil
}
