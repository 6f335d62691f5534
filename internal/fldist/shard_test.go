package fldist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"fedprophet/internal/fl"
	"fedprophet/internal/quant"
)

// The tests in this file drive the server with hand-rolled wire bodies over
// plain parameter vectors — no neural network, no training — so the sharded
// aggregation plane can be exercised with many clients, exact expected
// values, and fast -race runs.

// synthVec builds a deterministic pseudo-random vector.
func synthVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// perturb is the "local training" of the synthetic clients: a deterministic
// per-(client, round) modification of the pulled base.
func perturb(base []float64, id, round int) []float64 {
	out := make([]float64, len(base))
	for i := range base {
		out[i] = base[i] + 1e-3*float64((id+1)*(round+2))*float64(i%17-8)
	}
	return out
}

// rawBodyT frames a raw push — the trained vectors themselves, as two raw
// frames in an FPU1 envelope: the one hand-rolled raw body of these tests.
func rawBodyT(t testing.TB, id, round int, weight float64, params, bn []float64) []byte {
	t.Helper()
	body, err := rawUpdate(id, round, weight, params, bn)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// decodeModelEnvelopeT parses a pull body — the test-side
// counterpart of Client.streamModelEnvelope, built on the same streaming
// decoder so the wire format has exactly one parser per direction.
func decodeModelEnvelopeT(body io.Reader) (round int, params, bn []float64, err error) {
	var hdr [9]byte
	if _, err := io.ReadFull(body, hdr[:]); err != nil {
		return 0, nil, nil, err
	}
	if string(hdr[:4]) != modelMagic || hdr[4] != envVersion {
		return 0, nil, nil, fmt.Errorf("bad model envelope header % x", hdr)
	}
	round = int(binary.LittleEndian.Uint32(hdr[5:9]))
	for _, dst := range []*[]float64{&params, &bn} {
		dec, err := quant.NewStreamDecoder(body)
		if err != nil {
			return 0, nil, nil, err
		}
		*dst = make([]float64, dec.Len())
		if err := dec.DecodeAll(*dst); err != nil {
			return 0, nil, nil, err
		}
	}
	return round, params, bn, nil
}

// synthClient is a hand-rolled protocol participant: raw frames when comp is
// nil, compressed deltas (with client-side error feedback) otherwise.
type synthClient struct {
	id     int
	weight float64
	comp   *Compression

	base     []float64 // pulled params base (exact values for raw)
	baseBN   []float64
	residual []float64 // uplink error-feedback state
}

// pull fetches the model and retains the base; returns the round.
func (c *synthClient) pull(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/model", nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.comp != nil {
		req.Header.Set(codecHeader, codecValue(*c.comp))
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("client %d pull: %s: %s", c.id, resp.Status, b)
	}
	round, params, bn, err := decodeModelEnvelopeT(resp.Body)
	if err != nil {
		t.Fatalf("client %d pull: %v", c.id, err)
	}
	c.base = params
	c.baseBN = bn
	return round
}

// push trains (perturbs) and uploads for the given round, returning the HTTP
// status, whether the server marked it duplicate, and the exact contribution
// the server must have reconstructed.
func (c *synthClient) push(t *testing.T, ts *httptest.Server, round int) (status int, dup bool, params, bn []float64) {
	t.Helper()
	params = perturb(c.base, c.id, round)
	bn = perturb(c.baseBN, c.id, round)
	var body []byte
	if c.comp != nil {
		var frame []byte
		// The server reconstructs base + deq(delta).
		frame, params, c.residual = denseDelta(params, c.base, c.residual, *c.comp)
		dBN := make([]float64, len(bn))
		for i := range dBN {
			dBN[i] = bn[i] - c.baseBN[i]
		}
		env, err := encodeUpdateEnvelope(c.id, round, c.weight, frame, quant.EncodeRaw(dBN))
		if err != nil {
			t.Fatal(err)
		}
		body = env
	} else {
		body = rawBodyT(t, c.id, round, c.weight, params, bn)
	}
	resp, err := ts.Client().Post(ts.URL+"/update", contentTypeDelta, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Fldist-Duplicate") != "", params, bn
}

// mixedFleet builds the standard 4-client mix used by the invariance test:
// two raw clients and two compressed ones at different codec parameters.
func mixedFleet() []*synthClient {
	return []*synthClient{
		{id: 0, weight: 3},
		{id: 1, weight: 5},
		{id: 2, weight: 2, comp: &Compression{Bits: 8, Chunk: 64}},
		{id: 3, weight: 7, comp: &Compression{Bits: 4, Chunk: 32}},
	}
}

// referenceRun replays the exact protocol semantics sequentially with the
// pre-shard aggregation path: contributions collected in client-ID order and
// folded with fl.WeightedAverage, served bases computed per codec variant
// with downlink error feedback. This is the bit-exact oracle the sharded
// server must reproduce at every shard count.
func referenceRun(initParams, initBN []float64, rounds int) ([]float64, []float64) {
	global := append([]float64(nil), initParams...)
	bn := append([]float64(nil), initBN...)
	clients := mixedFleet()
	downErr := map[Compression][]float64{}
	for r := 0; r < rounds; r++ {
		// Served bases for the codec variants pulled this round.
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
			if _, ok := bases[comp]; ok {
				continue
			}
			v := append([]float64(nil), global...)
			if e := downErr[comp]; len(e) == len(v) {
				for i := range v {
					v[i] += e[i]
				}
			}
			deq := quant.QuantizeChunks(v, comp.Bits, comp.Chunk).Dequantize()
			bases[comp] = deq
			for i := range v {
				v[i] -= deq[i]
			}
			nextErr[comp] = v
		}
		var vecs, bns [][]float64
		var weights []float64
		for _, c := range clients { // client-ID order
			if c.comp == nil {
				p := perturb(global, c.id, r)
				vecs = append(vecs, p)
				bns = append(bns, perturb(bn, c.id, r))
				weights = append(weights, c.weight)
				continue
			}
			comp, _ := c.comp.normalize()
			base := bases[comp]
			p := perturb(base, c.id, r)
			_, rec, next := denseDelta(p, base, c.residual, comp)
			c.residual = next
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

// serverRun drives the same fleet against a real sharded server, pushing
// sequentially in client-ID order.
func serverRun(t *testing.T, initParams, initBN []float64, rounds, shards int) ([]float64, []float64) {
	t.Helper()
	srv := NewServer(initParams, initBN, 4, withSegments(shards))
	if srv.Shards() != shards {
		t.Fatalf("Shards() = %d, want %d", srv.Shards(), shards)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	clients := mixedFleet()
	for r := 0; r < rounds; r++ {
		for _, c := range clients {
			if got := c.pull(t, ts); got != r {
				t.Fatalf("client %d pulled round %d, want %d", c.id, got, r)
			}
		}
		for _, c := range clients {
			status, dup, _, _ := c.push(t, ts, r)
			if status != http.StatusOK || dup {
				t.Fatalf("round %d client %d push: status %d dup %v", r, c.id, status, dup)
			}
		}
		if srv.Round() != r+1 {
			t.Fatalf("round %d did not advance (at %d)", r, srv.Round())
		}
	}
	return srv.Snapshot()
}

// The headline determinism pin: a seeded mixed-fleet run aggregates
// bit-identically to the pre-shard single-mutex path at shard counts 1, 4
// and 8 — downlink error feedback, base reconstruction and FedAvg fold all
// included.
func TestShardCountInvariance(t *testing.T) {
	initParams := synthVec(1003, 1) // odd length: uneven shard ranges + ragged tail chunks
	initBN := synthVec(10, 2)
	const rounds = 3
	wantP, wantBN := referenceRun(initParams, initBN, rounds)
	for _, shards := range []int{1, 4, 8} {
		gotP, gotBN := serverRun(t, initParams, initBN, rounds, shards)
		for i := range wantP {
			if gotP[i] != wantP[i] {
				t.Fatalf("shards=%d: params[%d] = %v, want %v (not bit-identical)", shards, i, gotP[i], wantP[i])
			}
		}
		for i := range wantBN {
			if gotBN[i] != wantBN[i] {
				t.Fatalf("shards=%d: bn[%d] = %v, want %v (not bit-identical)", shards, i, gotBN[i], wantBN[i])
			}
		}
	}
}

// 32 concurrent clients — mixed raw and compressed, every one retrying its
// push — across two round boundaries: no update may be lost or
// double-counted, and the aggregate must equal the sequential reference
// computed in client-ID order.
func TestConcurrentMixedFleetStress(t *testing.T) {
	const clients = 32
	const rounds = 2
	initParams := synthVec(2000, 3)
	initBN := synthVec(8, 4)
	srv := NewServer(initParams, initBN, clients, withSegments(8))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	codecs := []*Compression{nil, {Bits: 8, Chunk: 64}, {Bits: 4, Chunk: 128}, nil}
	mk := func(id int) *synthClient {
		return &synthClient{id: id, weight: float64(id + 1), comp: codecs[id%len(codecs)]}
	}

	// contributions[r][id] is what the server must have folded, recorded by
	// each goroutine from its own push.
	type contribRec struct {
		params, bn []float64
	}
	contributions := make([]sync.Map, rounds)

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := mk(id)
			for r := 0; r < rounds; r++ {
				if got := c.pull(t, ts); got != r {
					errs[id] = fmt.Errorf("client %d pulled round %d, want %d", id, got, r)
					return
				}
				status, dup, params, bn := c.push(t, ts, r)
				if status != http.StatusOK || dup {
					errs[id] = fmt.Errorf("client %d round %d push: status %d dup %v", id, r, status, dup)
					return
				}
				contributions[r].Store(id, contribRec{params, bn})
				// Retry the same round: must be acknowledged as duplicate
				// (200 + marker) or rejected as stale (409) — never
				// double-counted. The retry races the round boundary on
				// purpose.
				c2 := &synthClient{id: id, weight: c.weight, comp: c.comp,
					base: c.base, baseBN: c.baseBN}
				if st, d, _, _ := c2.push(t, ts, r); st == http.StatusOK && !d {
					errs[id] = fmt.Errorf("client %d round %d retry was counted again", id, r)
					return
				}
				// Wait out the aggregation.
				deadline := time.Now().Add(10 * time.Second)
				for srv.Round() <= r {
					if time.Now().After(deadline) {
						errs[id] = fmt.Errorf("client %d: round %d never advanced", id, r)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}

	if got := srv.RoundsCompleted(); got != rounds {
		t.Fatalf("RoundsCompleted = %d, want %d", got, rounds)
	}
	st := srv.Stats()
	if st.UpdatesRaw+st.UpdatesCompressed != clients*rounds {
		t.Fatalf("counted %d+%d updates, want exactly %d (lost or double-counted)",
			st.UpdatesRaw, st.UpdatesCompressed, clients*rounds)
	}
	if st.Shards != 8 {
		t.Fatalf("stats shards = %d, want 8", st.Shards)
	}
	if st.AdmitP50Micros <= 0 || st.AdmitP99Micros < st.AdmitP50Micros {
		t.Fatalf("admit percentiles p50=%v p99=%v not populated/ordered", st.AdmitP50Micros, st.AdmitP99Micros)
	}

	// Replay the recorded contributions sequentially in client-ID order —
	// the pre-shard aggregation semantics — and demand bitwise equality.
	global, bn := append([]float64(nil), initParams...), append([]float64(nil), initBN...)
	for r := 0; r < rounds; r++ {
		var vecs, bns [][]float64
		var weights []float64
		for id := 0; id < clients; id++ {
			v, ok := contributions[r].Load(id)
			if !ok {
				t.Fatalf("round %d: client %d's update was lost", r, id)
			}
			rec := v.(contribRec)
			vecs = append(vecs, rec.params)
			bns = append(bns, rec.bn)
			weights = append(weights, float64(id+1))
		}
		global = fl.WeightedAverage(vecs, weights)
		bn = fl.WeightedAverage(bns, weights)
	}
	gotP, gotBN := srv.Snapshot()
	for i := range global {
		if gotP[i] != global[i] {
			t.Fatalf("params[%d] = %v, want sequential reference %v", i, gotP[i], global[i])
		}
	}
	for i := range bn {
		if gotBN[i] != bn[i] {
			t.Fatalf("bn[%d] = %v, want sequential reference %v", i, gotBN[i], bn[i])
		}
	}
}

// A /stats poll must answer while an /update body is stalled mid-stream —
// the counters are atomics and the push path holds no lock while reading
// the wire.
func TestStatsRespondsDuringStalledPush(t *testing.T) {
	initParams := synthVec(500, 5)
	srv := NewServer(initParams, nil, 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Open a raw connection and send an /update whose body stalls after the
	// envelope header: the handler goroutine is now blocked in a read.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	partial, err := encodeUpdateEnvelope(0, 0, 1, quant.Encode(quant.QuantizeChunks(initParams, 8, 64)),
		quant.EncodeRaw(nil))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /update HTTP/1.1\r\nHost: x\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		contentTypeDelta, len(partial))
	if _, err := conn.Write(partial[:30]); err != nil { // header + a sliver of the params frame
		t.Fatal(err)
	}

	// Give the handler a moment to enter the body read, then poll stats
	// with a hard deadline.
	time.Sleep(50 * time.Millisecond)
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatalf("/stats blocked behind a stalled push: %v", err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Round != 0 || st.UpdatesCompressed != 0 {
		t.Fatalf("stats during stalled push: %+v", st)
	}
}

// The round endpoint and registration must agree across the advance barrier:
// an update for the pre-advance round arriving after the quorum filled is
// answered 409, exactly like the pre-shard server.
func TestLateUpdateAfterQuorumIsStale(t *testing.T) {
	initParams := synthVec(100, 6)
	srv := NewServer(initParams, nil, 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	a := &synthClient{id: 0, weight: 1}
	b := &synthClient{id: 1, weight: 1}
	if r := a.pull(t, ts); r != 0 {
		t.Fatalf("round %d", r)
	}
	if r := b.pull(t, ts); r != 0 {
		t.Fatalf("round %d", r)
	}
	if status, _, _, _ := a.push(t, ts, 0); status != http.StatusOK {
		t.Fatalf("first push: %d", status)
	}
	if status, _, _, _ := b.push(t, ts, 0); status != http.StatusConflict {
		t.Fatalf("late push for an aggregated round: %d, want 409", status)
	}
}

// The streaming delta decoder must enforce the same body-size cap as the
// buffered path: a push with an oversized Content-Length is rejected, not
// buffered.
func TestOversizedPushRejected(t *testing.T) {
	initParams := synthVec(64, 7)
	srv := NewServer(initParams, nil, 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	huge := bytes.Repeat([]byte{0xAB}, 64*1024)
	resp, err := ts.Client().Post(ts.URL+"/update", contentTypeDelta, bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized push: status %d, want 400", resp.StatusCode)
	}
}

// A server with more shards than parameters must clamp rather than build
// empty shards, and the shard count must surface on /stats.
func TestShardClamping(t *testing.T) {
	srv := NewServer(synthVec(3, 9), nil, 1, withSegments(16))
	if got := srv.Shards(); got != 3 {
		t.Fatalf("Shards() = %d for a 3-param model, want clamp to 3", got)
	}
	if got := srv.Stats().Shards; got != 3 {
		t.Fatalf("stats shards = %d, want 3", got)
	}
}
