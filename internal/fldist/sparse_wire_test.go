package fldist

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fedprophet/internal/attack"
	"fedprophet/internal/fl"
	"fedprophet/internal/nn"
	"fedprophet/internal/quant"
)

// This file pins the compounding wire diet: top-k sparse uplink frames and
// the per-client delta downlink. The aggregation-plane tests reuse the
// synthetic-client machinery from shard_test.go (exact expected values, no
// training); the convergence and delta-chain tests drive real clients.

// TestParseCodecSparseParams pins the negotiation grammar for the sparse and
// delta parameters: codecValue/parseCodec round-trip, the per-request base
// parameter, and the reject cases an old client or a fuzzer can produce.
func TestParseCodecSparseParams(t *testing.T) {
	for _, comp := range []Compression{
		{Bits: 8, Chunk: 64},
		{Bits: 4, Chunk: 32, TopK: 50},
		{Bits: 4, Chunk: 64, TopK: 7, Delta: true},
		{Bits: 2, Chunk: 128, Delta: true},
	} {
		got, base, ok, err := parseCodec(codecValue(comp))
		if err != nil || !ok {
			t.Fatalf("parseCodec(%q): ok=%v err=%v", codecValue(comp), ok, err)
		}
		want, _ := comp.normalize()
		if got != want {
			t.Fatalf("parseCodec(%q) = %+v, want %+v", codecValue(comp), got, want)
		}
		if base != -1 {
			t.Fatalf("parseCodec(%q) base = %d, want -1 (absent)", codecValue(comp), base)
		}
	}

	// base=R is per-request state riding alongside the codec identity.
	v := codecValue(Compression{Bits: 4, Chunk: 64, TopK: 10, Delta: true}) + ";base=7"
	comp, base, ok, err := parseCodec(v)
	if err != nil || !ok || base != 7 || !comp.Delta || comp.TopK != 10 {
		t.Fatalf("parseCodec(%q) = %+v base=%d ok=%v err=%v", v, comp, base, ok, err)
	}

	for _, bad := range []string{
		"fpq1;bits=8;chunk=64;topk=abc",
		"fpq1;bits=8;chunk=64;topk=-3",
		"fpq1;bits=8;chunk=64;topk=99999999", // > maxTopK
		"fpq1;bits=8;chunk=64;delta=2",
		"fpq1;bits=8;chunk=64;base=-1",
		"fpq1;bits=8;chunk=64;sparse=1", // unknown parameter: old servers 400 new clients
	} {
		if _, _, _, err := parseCodec(bad); err == nil {
			t.Fatalf("parseCodec(%q) accepted, want error", bad)
		}
	}
}

// sparseDelta encodes the top-k sparse uplink frame for trained-vs-base with
// error feedback: it returns the wire frame, the exact reconstruction the
// server must produce (base + scatter-add of the dequantized survivors), and
// the next residual (the sparsification error rides in the residual alongside
// the quantization error). Shared by the synthetic sparse client and the
// sequential reference fold so both sides derive the oracle identically.
func sparseDelta(trained, base, residual []float64, comp Compression) (frame []byte, rec, next []float64) {
	d := make([]float64, len(trained))
	for i := range d {
		d[i] = trained[i] - base[i]
		if residual != nil {
			d[i] += residual[i]
		}
	}
	idx := quant.TopKIndices(d, comp.TopK)
	deq := make([]float64, len(idx))
	frame = quant.EncodeSparse(d, idx, comp.Bits, comp.Chunk, deq)
	rec = append([]float64(nil), base...)
	for j, ix := range idx {
		rec[ix] += deq[j]
		d[ix] -= deq[j]
	}
	return frame, rec, d
}

// denseDelta is sparseDelta's dense counterpart: the client's dense
// sendErrorFed frame, what the server reconstructs from it (base + the
// decoded delta) and the next residual.
func denseDelta(trained, base, residual []float64, comp Compression) (frame []byte, rec, next []float64) {
	next = formDelta(trained, base, residual)
	frame = sendErrorFed(next, Compression{Bits: comp.Bits, Chunk: comp.Chunk}, 1, nil)
	f, err := quant.Decode(frame)
	if err != nil {
		panic(err) // a frame the encoder just wrote; unreachable
	}
	rec = f.Q.Dequantize()
	for i := range rec {
		rec[i] = base[i] + rec[i]
	}
	return frame, rec, next
}

// sparsePush is the synthetic client's top-k uplink: params as a sparse
// frame, BN as a raw delta (exact). Mirrors synthClient.push for the dense
// case.
func (c *synthClient) sparsePush(t *testing.T, ts *httptest.Server, round int) (status int, dup bool, params, bn []float64) {
	t.Helper()
	comp, err := c.comp.normalize()
	if err != nil {
		t.Fatal(err)
	}
	trained := perturb(c.base, c.id, round)
	bn = perturb(c.baseBN, c.id, round)
	frame, rec, next := sparseDelta(trained, c.base, c.residual, comp)
	c.residual = next
	dBN := make([]float64, len(bn))
	for i := range dBN {
		dBN[i] = bn[i] - c.baseBN[i]
	}
	env, err := encodeUpdateEnvelope(c.id, round, c.weight, frame, quant.EncodeRaw(dBN))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/update", contentTypeDelta, bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Fldist-Duplicate") != "", rec, bn
}

// pushAny routes to the sparse or dense uplink by codec.
func (c *synthClient) pushAny(t *testing.T, ts *httptest.Server, round int) (int, bool, []float64, []float64) {
	t.Helper()
	if c.comp != nil && c.comp.TopK > 0 {
		return c.sparsePush(t, ts, round)
	}
	return c.push(t, ts, round)
}

// TestSparsePushRoundTrip pins the sparse uplink arithmetic end to end: a
// single sparse client's admission must land as base + scatter-add of
// exactly the k dequantized survivors, and the per-form stats split must
// attribute the push as a subset of the compressed totals.
func TestSparsePushRoundTrip(t *testing.T) {
	initParams := synthVec(500, 21)
	initBN := synthVec(6, 22)
	srv := NewServer(initParams, initBN, 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := &synthClient{id: 0, weight: 2, comp: &Compression{Bits: 4, Chunk: 64, TopK: 30}}
	if r := c.pull(t, ts); r != 0 {
		t.Fatalf("pulled round %d, want 0", r)
	}
	status, dup, rec, bn := c.sparsePush(t, ts, 0)
	if status != http.StatusOK || dup {
		t.Fatalf("sparse push: status %d dup %v", status, dup)
	}
	if srv.Round() != 1 {
		t.Fatalf("round %d, want 1", srv.Round())
	}
	gotP, gotBN := srv.Snapshot()
	for i := range rec {
		if gotP[i] != rec[i] {
			t.Fatalf("params[%d] = %v, want base+scatter-add %v", i, gotP[i], rec[i])
		}
	}
	for i := range bn {
		if gotBN[i] != bn[i] {
			t.Fatalf("bn[%d] = %v, want %v", i, gotBN[i], bn[i])
		}
	}

	st := srv.Stats()
	if st.UpdatesSparse != 1 || st.UpdatesCompressed != 1 {
		t.Fatalf("updates sparse=%d compressed=%d, want 1/1", st.UpdatesSparse, st.UpdatesCompressed)
	}
	if st.BytesInSparse <= 0 || st.BytesInSparse != st.BytesInCompressed {
		t.Fatalf("bytes sparse=%d compressed=%d, want equal and positive (only push was sparse)",
			st.BytesInSparse, st.BytesInCompressed)
	}
	// The sparse body must be far smaller than the dense frame at the same
	// bits: 30 of 500 coordinates against 500.
	denseLen := len(quant.Encode(quant.QuantizeChunks(initParams, 4, 64)))
	if st.BytesInSparse >= int64(denseLen) {
		t.Fatalf("sparse push %dB, dense frame alone is %dB — no wire saving", st.BytesInSparse, denseLen)
	}
}

// TestSparseSharesDenseServedBase pins serveKey: a top-k client and a dense
// client at the same (bits, chunk) must pull the bit-identical served base —
// sparsification is an uplink choice, not a downlink variant, so the server
// keeps one body and one downlink-EF state for both.
func TestSparseSharesDenseServedBase(t *testing.T) {
	srv := NewServer(synthVec(300, 31), synthVec(4, 32), 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	dense := &synthClient{id: 0, weight: 1, comp: &Compression{Bits: 8, Chunk: 64}}
	sparse := &synthClient{id: 1, weight: 1, comp: &Compression{Bits: 8, Chunk: 64, TopK: 12}}
	dense.pull(t, ts)
	sparse.pull(t, ts)
	for i := range dense.base {
		if dense.base[i] != sparse.base[i] {
			t.Fatalf("served base diverged at [%d]: dense %v sparse %v (serveKey must erase topk)",
				i, dense.base[i], sparse.base[i])
		}
	}
	if st := srv.Stats(); st.ServedBuilds != 1 {
		t.Fatalf("served builds = %d, want 1 shared body for both pulls", st.ServedBuilds)
	}
}

// TestDeltaDownlinkCatchUp drives the per-client delta downlink with real
// clients: a returning client declaring its held round receives only the
// FPD1 catch-up frames, lands bit-identical to a cold puller at the same
// round, pays far fewer downlink bytes, and its next push resolves against
// the chain's per-round base registry.
func TestDeltaDownlinkCatchUp(t *testing.T) {
	_, _, _, build := testSetup(t, 3, 3)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	comp := &Compression{Bits: 4, Chunk: 64, TopK: 50, Delta: true}
	a := mkClient(t, ts, 0, 10, comp)
	drv := mkClient(t, ts, 1, 11, nil)
	ctx := context.Background()

	// Cold pull: seeds the chain and A's held round.
	if r, err := a.Pull(ctx); err != nil || r != 0 {
		t.Fatalf("cold pull: round %d err %v", r, err)
	}
	if !a.hasChain || a.heldRound != 0 {
		t.Fatalf("after cold pull: hasChain=%v heldRound=%d", a.hasChain, a.heldRound)
	}

	// The raw driver advances two rounds while A is away.
	for i := 0; i < 2; i++ {
		r, err := drv.Pull(ctx)
		if err != nil {
			t.Fatal(err)
		}
		drv.TrainLocal(0.05)
		if counted, err := drv.Push(ctx, r); err != nil || !counted {
			t.Fatalf("driver push round %d: counted=%v err=%v", r, counted, err)
		}
	}

	// Catch-up pull: only the frames from A's held round to the head.
	before := srv.Stats()
	r, err := a.Pull(ctx)
	if err != nil || r != 2 {
		t.Fatalf("catch-up pull: round %d err %v", r, err)
	}
	if !a.hasChain || a.heldRound != 2 {
		t.Fatalf("after catch-up: hasChain=%v heldRound=%d", a.hasChain, a.heldRound)
	}
	mid := srv.Stats()
	deltaBytes := mid.BytesOutDelta - before.BytesOutDelta
	if mid.DeltaPulls-before.DeltaPulls != 1 || deltaBytes <= 0 {
		t.Fatalf("catch-up not attributed: pulls %d bytes %d", mid.DeltaPulls-before.DeltaPulls, deltaBytes)
	}

	// A fresh delta client at the same codec pulls the chain cold at the same
	// round: its base must be bit-identical to A's caught-up base — the chain
	// is one deterministic sequence regardless of entry point.
	b := mkClient(t, ts, 2, 12, comp)
	if r, err := b.Pull(ctx); err != nil || r != 2 {
		t.Fatalf("cold catch pull: round %d err %v", r, err)
	}
	after := srv.Stats()
	coldBytes := after.BytesOutCold - mid.BytesOutCold
	if after.ColdPulls-mid.ColdPulls != 1 || coldBytes <= 0 {
		t.Fatalf("cold pull not attributed: pulls %d bytes %d", after.ColdPulls-mid.ColdPulls, coldBytes)
	}
	for i := range a.baseParams {
		if a.baseParams[i] != b.baseParams[i] {
			t.Fatalf("params[%d]: catch-up %v cold %v (chain not deterministic)", i, a.baseParams[i], b.baseParams[i])
		}
	}
	for i := range a.baseBN {
		if a.baseBN[i] != b.baseBN[i] {
			t.Fatalf("bn[%d]: catch-up %v cold %v", i, a.baseBN[i], b.baseBN[i])
		}
	}
	// The whole point of the diet: a catch-up body is a small multiple of
	// k·bits, a cold body is the full raw model.
	if deltaBytes*5 > coldBytes {
		t.Fatalf("catch-up %dB vs cold %dB — expected ≥5× downlink saving", deltaBytes, coldBytes)
	}

	// A's push declares its codec; the server resolves the training base from
	// the round-2 chain entry, not a served model.
	a.TrainLocal(0.05)
	if counted, err := a.Push(ctx, 2); err != nil || !counted {
		t.Fatalf("delta push: counted=%v err=%v", counted, err)
	}
}

// TestDeltaPushWithoutChainIsStale pins the restart contract: a delta-mode
// push whose round has no chain entry (server restarted, or the round fell
// out of the window) is answered 409 so the client re-pulls cold and
// retrains — never admitted against a wrong base.
func TestDeltaPushWithoutChainIsStale(t *testing.T) {
	initParams := synthVec(200, 41)
	srv := NewServer(initParams, nil, 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	comp, _ := Compression{Bits: 8, Chunk: 64, TopK: 10, Delta: true}.normalize()
	frame, _, _ := sparseDelta(perturb(initParams, 0, 0), initParams, nil, comp)
	env, err := encodeUpdateEnvelope(0, 0, 1, frame, quant.EncodeRaw(nil))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/update", bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentTypeDelta)
	req.Header.Set(codecHeader, codecValue(comp))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("delta push with no chain: status %d (%s), want 409", resp.StatusCode, strings.TrimSpace(string(body)))
	}
}

// sparseFleet is the mixed fleet for the determinism pin: raw, dense, and
// two sparse clients — one of which shares its served base with the dense
// 4-bit client (same serveKey).
func sparseFleet() []*synthClient {
	return []*synthClient{
		{id: 0, weight: 3},
		{id: 1, weight: 5, comp: &Compression{Bits: 4, Chunk: 32}},
		{id: 2, weight: 2, comp: &Compression{Bits: 8, Chunk: 64, TopK: 40}},
		{id: 3, weight: 7, comp: &Compression{Bits: 4, Chunk: 32, TopK: 25}},
	}
}

// sparseReferenceRun replays the sparse fleet's protocol sequentially with
// the pre-shard semantics: served bases per serveKey variant (downlink error
// feedback included), sparse contributions reconstructed by scatter-add, the
// fold in client-ID order. The bit-exact oracle for sparseServerRun.
func sparseReferenceRun(initParams, initBN []float64, rounds int) ([]float64, []float64) {
	global := append([]float64(nil), initParams...)
	bn := append([]float64(nil), initBN...)
	clients := sparseFleet()
	downErr := map[Compression][]float64{}
	for r := 0; r < rounds; r++ {
		bases := map[Compression][]float64{}
		nextErr := map[Compression][]float64{}
		for _, c := range clients {
			if c.comp == nil {
				continue
			}
			comp, err := c.comp.normalize()
			if err != nil {
				panic(err)
			}
			key := comp.serveKey()
			if _, ok := bases[key]; ok {
				continue
			}
			v := append([]float64(nil), global...)
			if e := downErr[key]; len(e) == len(v) {
				for i := range v {
					v[i] += e[i]
				}
			}
			deq := quant.QuantizeChunks(v, key.Bits, key.Chunk).Dequantize()
			bases[key] = deq
			for i := range v {
				v[i] -= deq[i]
			}
			nextErr[key] = v
		}
		var vecs, bns [][]float64
		var weights []float64
		for _, c := range clients { // client-ID order
			if c.comp == nil {
				vecs = append(vecs, perturb(global, c.id, r))
				bns = append(bns, perturb(bn, c.id, r))
				weights = append(weights, c.weight)
				continue
			}
			comp, _ := c.comp.normalize()
			base := bases[comp.serveKey()]
			p := perturb(base, c.id, r)
			var rec []float64
			if comp.TopK > 0 {
				_, rec, c.residual = sparseDelta(p, base, c.residual, comp)
			} else {
				_, rec, c.residual = denseDelta(p, base, c.residual, comp)
			}
			vecs = append(vecs, rec)
			bns = append(bns, perturb(bn, c.id, r))
			weights = append(weights, c.weight)
		}
		global = fl.WeightedAverage(vecs, weights)
		if len(bn) > 0 {
			bn = fl.WeightedAverage(bns, weights)
		}
		downErr = nextErr
	}
	return global, bn
}

// sparseServerRun drives the sparse fleet against a real sharded server,
// pushing in the given arrival permutation each round.
func sparseServerRun(t *testing.T, initParams, initBN []float64, rounds, shards int, perm [4]int) ([]float64, []float64) {
	t.Helper()
	srv := NewServer(initParams, initBN, 4, withSegments(shards))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	clients := sparseFleet()
	for r := 0; r < rounds; r++ {
		for _, c := range clients {
			if got := c.pull(t, ts); got != r {
				t.Fatalf("client %d pulled round %d, want %d", c.id, got, r)
			}
		}
		for _, i := range perm {
			c := clients[i]
			status, dup, _, _ := c.pushAny(t, ts, r)
			if status != http.StatusOK || dup {
				t.Fatalf("round %d client %d push: status %d dup %v", r, c.id, status, dup)
			}
		}
	}
	return srv.Snapshot()
}

// TestSparseFleetDeterminism is the headline pin for the sparse uplink: a
// seeded mixed sparse/dense/raw fleet aggregates bit-identically to the
// sequential reference at shard counts 1, 4 and 8, under GOMAXPROCS 1 and 4,
// and under every arrival permutation of the four clients.
func TestSparseFleetDeterminism(t *testing.T) {
	initParams := synthVec(1003, 61) // odd length: uneven shards, ragged chunks
	initBN := synthVec(10, 62)
	const rounds = 3
	wantP, wantBN := sparseReferenceRun(initParams, initBN, rounds)

	check := func(t *testing.T, shards int, perm [4]int) {
		t.Helper()
		gotP, gotBN := sparseServerRun(t, initParams, initBN, rounds, shards, perm)
		for i := range wantP {
			if gotP[i] != wantP[i] {
				t.Fatalf("shards=%d perm=%v: params[%d] = %v, want reference %v", shards, perm, i, gotP[i], wantP[i])
			}
		}
		for i := range wantBN {
			if gotBN[i] != wantBN[i] {
				t.Fatalf("shards=%d perm=%v: bn[%d] = %v, want reference %v", shards, perm, i, gotBN[i], wantBN[i])
			}
		}
	}

	idOrder := [4]int{0, 1, 2, 3}
	// Every arrival permutation at the default shard count.
	for _, perm := range permutations4(idOrder) {
		check(t, 4, perm)
	}
	// Shard counts, forward and reversed arrival.
	reversed := [4]int{3, 2, 1, 0}
	for _, shards := range []int{1, 8} {
		check(t, shards, idOrder)
		check(t, shards, reversed)
	}
	// GOMAXPROCS: single-P and multi-P folds.
	for _, gmp := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(gmp)
		check(t, 4, reversed)
		runtime.GOMAXPROCS(prev)
	}
}

// TestTopK4BitConvergesNearRaw pins the training contract of the compound
// diet: top-k sparsification at 4 bits with the delta downlink, both errors
// absorbed by client-side feedback, must stay within 0.10 clean accuracy of
// the uncompressed protocol on the seeded synthetic task.
func TestTopK4BitConvergesNearRaw(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence run")
	}
	_, test, subs, build := testSetup(t, 3, 7)
	const rounds = 6

	run := func(comp *Compression) float64 {
		m := build()
		srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 3)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		var wg sync.WaitGroup
		for id := 0; id < 3; id++ {
			c := &Client{
				ID: id, BaseURL: ts.URL, HTTP: ts.Client(),
				Model: build(), Subset: subs[id], Cfg: clientCfg(),
				Rng:         rand.New(rand.NewSource(int64(100 + id))),
				Compression: comp,
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := c.RunRounds(context.Background(), rounds, 0.05); err != nil {
					t.Errorf("client %d: %v", c.ID, err)
				}
			}()
		}
		wg.Wait()
		params, bn := srv.Snapshot()
		final := build()
		nn.ImportParams(final, params)
		nn.ImportBNStats(final, bn)
		return attack.CleanAccuracy(final, test, 16)
	}

	n := len(nn.ExportParams(build()))
	rawAcc := run(nil)
	sparseAcc := run(&Compression{Bits: 4, Chunk: 128, TopK: n / 5, Delta: true})
	t.Logf("raw acc %.3f, top-k 4-bit delta acc %.3f (n=%d, k=%d)", rawAcc, sparseAcc, n, n/5)
	if rawAcc < 0.5 {
		t.Fatalf("raw baseline failed to learn: acc %.3f", rawAcc)
	}
	if sparseAcc < rawAcc-0.10 {
		t.Fatalf("top-k 4-bit delta acc %.3f more than 0.10 below raw %.3f", sparseAcc, rawAcc)
	}
}

// TestRecoverSparseAdmit pins WAL replay of a sparse admission: a
// top-k client's stale push is admitted just before the crash, so the log
// holds its verbatim sparse frames. Recovery must re-run the handler's
// scatter-add against the identical rebuilt served base and finish on the
// bit-identical model a never-crashed run produces.
func TestRecoverSparseAdmit(t *testing.T) {
	initP, initBN := synthVec(257, 91), synthVec(5, 92)
	mk := func(opts ...ServerOption) *Server {
		return NewServer(initP, initBN, 1, append(opts, WithBufferedAggregation(2, 3))...)
	}

	// The sparse client pulls at round 0, two rounds commit under it, then
	// its top-k push — staleness 2 — is admitted into round 2's open buffer.
	script := func(t *testing.T, ts *httptest.Server) {
		stale := &synthClient{id: 100, weight: 2, comp: &Compression{Bits: 8, Chunk: 64, TopK: 20}}
		if r := stale.pull(t, ts); r != 0 {
			t.Fatalf("sparse client pulled round %d, want 0", r)
		}
		for id := 0; id < 4; id++ {
			fedPush(t, ts, id)
		}
		if st, dup, _, _ := stale.sparsePush(t, ts, 0); st != http.StatusOK || dup {
			t.Fatalf("stale sparse push: status %d dup %v", st, dup)
		}
	}
	finish := func(t *testing.T, ts *httptest.Server) {
		fedPush(t, ts, 4)
	}

	// Never-crashed reference.
	ref := mk()
	ts := httptest.NewServer(ref.Handler())
	script(t, ts)
	finish(t, ts)
	ts.Close()
	refP, refBN := ref.Snapshot()
	ref.Close()

	// Crashed run: die with the sparse admission uncommitted.
	dir := t.TempDir()
	srv := mk(WithWAL(dir), withWarnf(t.Logf))
	ts = httptest.NewServer(srv.Handler())
	script(t, ts)
	ts.Close()
	if srv.Round() != 2 {
		t.Fatalf("crashed at round %d, want 2 (sparse admit buffered)", srv.Round())
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
			t.Fatalf("params[%d] = %v, want %v (sparse frame replay diverged)", i, p[i], refP[i])
		}
	}
	for i := range refBN {
		if bn[i] != refBN[i] {
			t.Fatalf("bn[%d] = %v, want %v", i, bn[i], refBN[i])
		}
	}
}
