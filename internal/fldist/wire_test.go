package fldist

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"fedprophet/internal/attack"
	"fedprophet/internal/nn"
	"fedprophet/internal/quant"
)

// mkClient builds a test client; comp == nil means raw frames.
func mkClient(t *testing.T, ts *httptest.Server, id int, seed int64, comp *Compression) *Client {
	t.Helper()
	_, _, subs, build := testSetup(t, 3, 3)
	return &Client{
		ID: id, BaseURL: ts.URL, HTTP: ts.Client(),
		Model: build(), Subset: subs[id], Cfg: clientCfg(),
		Rng:         rand.New(rand.NewSource(seed)),
		Compression: comp,
	}
}

// A compressed pull must negotiate the codec, deliver the quantized model,
// and a compressed push must land as base + dequantized delta.
func TestCompressedPullPushRoundTrip(t *testing.T) {
	_, _, subs, build := testSetup(t, 2, 1)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	comp := Compression{Bits: 8, Chunk: 64}
	c := &Client{
		ID: 0, BaseURL: ts.URL, HTTP: ts.Client(),
		Model: build(), Subset: subs[0], Cfg: clientCfg(),
		Rng:         rand.New(rand.NewSource(2)),
		Compression: &comp,
	}
	ctx := context.Background()
	round, err := c.Pull(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if round != 0 || !c.negotiated {
		t.Fatalf("round=%d negotiated=%v, want 0/true", round, c.negotiated)
	}
	// The pulled model is the server's global quantized at 8 bits: close to
	// but (generically) not equal to the exact params, and exactly equal to
	// the base the client retains.
	global := nn.ExportParams(m)
	pulled := nn.ExportParams(c.Model)
	qExpect := quant.QuantizeChunks(global, comp.Bits, comp.Chunk)
	wantBase := qExpect.Dequantize()
	for i := range pulled {
		if pulled[i] != wantBase[i] || c.baseParams[i] != wantBase[i] {
			t.Fatalf("pulled[%d]=%v base=%v want quantized global %v",
				i, pulled[i], c.baseParams[i], wantBase[i])
		}
	}

	c.TrainLocal(0.05)
	trained := nn.ExportParams(c.Model)
	// Recompute the exact reconstruction the server must produce.
	_, want, _ := denseDelta(trained, c.baseParams, nil, comp)
	counted, err := c.Push(ctx, 0)
	if err != nil || !counted {
		t.Fatalf("push: counted=%v err=%v", counted, err)
	}
	if srv.Round() != 1 {
		t.Fatalf("round = %d after quorum-1 push, want 1", srv.Round())
	}
	got, _ := srv.Snapshot()
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("server[%d] = %v, want base+delta reconstruction %v", i, got[i], want[i])
		}
	}
	// Error feedback state advanced and holds the quantization residual.
	if c.errParams == nil || c.residualRound != 1 {
		t.Fatalf("residual not committed: err=%v round=%d", c.errParams != nil, c.residualRound)
	}
}

// One compressed and one raw client in the same round must aggregate into
// the exact weighted average of (base+delta reconstruction) and the raw
// parameters.
func TestMixedFleetAggregatesCorrectly(t *testing.T) {
	_, _, subs, build := testSetup(t, 2, 3)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	comp := Compression{Bits: 4, Chunk: 32}
	cc := &Client{
		ID: 0, BaseURL: ts.URL, HTTP: ts.Client(),
		Model: build(), Subset: subs[0], Cfg: clientCfg(),
		Rng: rand.New(rand.NewSource(10)), Compression: &comp,
	}
	cr := &Client{
		ID: 1, BaseURL: ts.URL, HTTP: ts.Client(),
		Model: build(), Subset: subs[1], Cfg: clientCfg(),
		Rng: rand.New(rand.NewSource(11)),
	}
	ctx := context.Background()
	for _, c := range []*Client{cc, cr} {
		if _, err := c.Pull(ctx); err != nil {
			t.Fatal(err)
		}
		c.TrainLocal(0.05)
	}
	if cc.negotiated == false || cr.negotiated == true {
		t.Fatalf("negotiation wrong: compressed=%v raw=%v", cc.negotiated, cr.negotiated)
	}

	// Expected contributions, computed independently of the server.
	trained := nn.ExportParams(cc.Model)
	_, pc, _ := denseDelta(trained, cc.baseParams, nil, comp)
	pr := nn.ExportParams(cr.Model)

	if counted, err := cc.Push(ctx, 0); err != nil || !counted {
		t.Fatalf("compressed push: counted=%v err=%v", counted, err)
	}
	if counted, err := cr.Push(ctx, 0); err != nil || !counted {
		t.Fatalf("raw push: counted=%v err=%v", counted, err)
	}
	if srv.Round() != 1 {
		t.Fatalf("round = %d after mixed quorum, want 1", srv.Round())
	}
	w0, w1 := float64(subs[0].Len()), float64(subs[1].Len())
	got, _ := srv.Snapshot()
	for i := range got {
		want := (w0*pc[i] + w1*pr[i]) / (w0 + w1)
		if diff := math.Abs(got[i] - want); diff > 1e-12 {
			t.Fatalf("mixed aggregate[%d] = %v, want %v", i, got[i], want)
		}
	}
	st := srv.Stats()
	if st.UpdatesCompressed != 1 || st.UpdatesRaw != 1 {
		t.Fatalf("stats updates: comp=%d raw=%d, want 1/1", st.UpdatesCompressed, st.UpdatesRaw)
	}
}

// The second compressed round's delta must carry the first round's
// quantization residual (error feedback).
func TestErrorFeedbackCarriesResidual(t *testing.T) {
	_, _, subs, build := testSetup(t, 2, 5)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	comp := Compression{Bits: 2, Chunk: 16} // aggressive: large residuals
	c := &Client{
		ID: 0, BaseURL: ts.URL, HTTP: ts.Client(),
		Model: build(), Subset: subs[0], Cfg: clientCfg(),
		Rng: rand.New(rand.NewSource(7)), Compression: &comp,
	}
	ctx := context.Background()
	round, err := c.Pull(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c.TrainLocal(0.05)
	trained := nn.ExportParams(c.Model)
	wantResidual := formDelta(trained, c.baseParams, nil)
	sendErrorFed(wantResidual, comp, 1, nil)
	if _, err := c.Push(ctx, round); err != nil {
		t.Fatal(err)
	}
	nonzero := false
	for i := range wantResidual {
		if c.errParams[i] != wantResidual[i] {
			t.Fatalf("residual[%d] = %v, want %v", i, c.errParams[i], wantResidual[i])
		}
		if wantResidual[i] != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("2-bit quantization of a trained delta should leave a residual")
	}

	// Round 1: the served base changed, and the pushed delta must include
	// the carried residual — verify the server lands on base + deq(d) with
	// d = (p − base) + residual.
	round, err = c.Pull(ctx)
	if err != nil || round != 1 {
		t.Fatalf("second pull: round=%d err=%v", round, err)
	}
	c.TrainLocal(0.05)
	trained = nn.ExportParams(c.Model)
	_, want, _ := denseDelta(trained, c.baseParams, wantResidual, comp)
	if _, err := c.Push(ctx, round); err != nil {
		t.Fatal(err)
	}
	got, _ := srv.Snapshot()
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("round-1 aggregate[%d] = %v, want error-fed %v", i, got[i], want[i])
		}
	}
}

// Corrupt or truncated compressed bodies must be rejected with 400, not
// crash the server or poison the round.
func TestCorruptDeltaRejected(t *testing.T) {
	_, _, subs, build := testSetup(t, 2, 7)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(b []byte) int {
		resp, err := ts.Client().Post(ts.URL+"/update", contentTypeDelta, bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post([]byte("garbage")); got != http.StatusBadRequest {
		t.Fatalf("garbage delta: status %d", got)
	}

	// A well-formed envelope, then truncated mid-frame.
	comp := Compression{Bits: 8, Chunk: 64}
	c := &Client{
		ID: 0, BaseURL: ts.URL, HTTP: ts.Client(),
		Model: build(), Subset: subs[0], Cfg: clientCfg(),
		Rng: rand.New(rand.NewSource(9)), Compression: &comp,
	}
	ctx := context.Background()
	if _, err := c.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	c.TrainLocal(0.05)
	pFrame := sendErrorFed(formDelta(nn.ExportParams(c.Model), c.baseParams, nil), comp, 1, nil)
	env, err := encodeUpdateEnvelope(0, 0, 1, pFrame,
		quant.EncodeRaw(make([]float64, len(c.baseBN))))
	if err != nil {
		t.Fatal(err)
	}
	if got := post(env[:len(env)-5]); got != http.StatusBadRequest {
		t.Fatalf("truncated delta: status %d", got)
	}
	if got := post(append(env, 0xFF)); got != http.StatusBadRequest {
		t.Fatalf("trailing-garbage delta: status %d", got)
	}
	// A raw frame smuggled into the delta path is rejected too.
	rawEnv, err := encodeUpdateEnvelope(0, 0, 1,
		quant.EncodeRaw([]float64{1}), quant.EncodeRaw(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := post(rawEnv); got != http.StatusBadRequest {
		t.Fatalf("raw-frame delta: status %d", got)
	}
	// Attacker-shaped float64 bits must not poison the aggregate: a NaN
	// weight and a NaN value in the raw BN delta frame are both rejected.
	nanWeight, err := encodeUpdateEnvelope(0, 0, math.NaN(), pFrame,
		quant.EncodeRaw(make([]float64, len(c.baseBN))))
	if err != nil {
		t.Fatal(err)
	}
	if got := post(nanWeight); got != http.StatusBadRequest {
		t.Fatalf("NaN weight: status %d", got)
	}
	nanBN := make([]float64, len(c.baseBN))
	if len(nanBN) > 0 {
		nanBN[0] = math.NaN()
	}
	nanBNEnv, err := encodeUpdateEnvelope(0, 0, 1, pFrame, quant.EncodeRaw(nanBN))
	if err != nil {
		t.Fatal(err)
	}
	if got := post(nanBNEnv); got != http.StatusBadRequest {
		t.Fatalf("NaN BN value: status %d", got)
	}
	// None of that may have advanced the round or counted an update.
	if srv.Round() != 0 {
		t.Fatalf("round moved to %d on rejected updates", srv.Round())
	}
	// A malformed negotiation header on pull is a 400, not a silent
	// downgrade.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/model", nil)
	req.Header.Set(codecHeader, "fpq1;bits=77")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bits=77 negotiation: status %d", resp.StatusCode)
	}
}

// The server bounds how many distinct codec parameter sets it will serve
// per round, so header-cycling clients cannot grow its memory without
// limit.
func TestCodecVariantCap(t *testing.T) {
	_, _, _, build := testSetup(t, 2, 21)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pull := func(chunk int) int {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/model", nil)
		req.Header.Set(codecHeader, codecValue(Compression{Bits: 8, Chunk: chunk}))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i := 0; i < maxCodecVariants; i++ {
		if got := pull(16 + i); got != http.StatusOK {
			t.Fatalf("variant %d: status %d", i, got)
		}
	}
	if got := pull(999); got != http.StatusBadRequest {
		t.Fatalf("variant beyond cap must be rejected, got %d", got)
	}
	// A variant already served this round keeps working.
	if got := pull(16); got != http.StatusOK {
		t.Fatalf("known variant after cap: status %d", got)
	}
}

// An old server that does not speak the codec must transparently downgrade
// a compression-requesting client to the raw gob protocol.
func TestFallbackToRawAgainstOldServer(t *testing.T) {
	_, _, subs, build := testSetup(t, 2, 9)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 1)
	// Simulate the pre-codec server by stripping the negotiation header
	// before it reaches the handler.
	strip := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del(codecHeader)
		srv.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(strip)
	defer ts.Close()

	comp := Compression{Bits: 8}
	c := &Client{
		ID: 0, BaseURL: ts.URL, HTTP: ts.Client(),
		Model: build(), Subset: subs[0], Cfg: clientCfg(),
		Rng: rand.New(rand.NewSource(12)), Compression: &comp,
	}
	ctx := context.Background()
	if _, err := c.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	if c.negotiated {
		t.Fatal("client must detect the missing codec echo and fall back")
	}
	c.TrainLocal(0.05)
	if counted, err := c.Push(ctx, 0); err != nil || !counted {
		t.Fatalf("fallback push: counted=%v err=%v", counted, err)
	}
	// The raw push carries exact params: the aggregate equals them.
	want := nn.ExportParams(c.Model)
	got, _ := srv.Snapshot()
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("fallback aggregate[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// /stats must report the wire saving: compressed pull+push bytes well below
// the raw-frame equivalent for the same model.
func TestStatsEndpointCountsBytes(t *testing.T) {
	_, _, subs, build := testSetup(t, 2, 11)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	comp := Compression{Bits: 8}
	cc := &Client{
		ID: 0, BaseURL: ts.URL, HTTP: ts.Client(),
		Model: build(), Subset: subs[0], Cfg: clientCfg(),
		Rng: rand.New(rand.NewSource(13)), Compression: &comp,
	}
	cr := &Client{
		ID: 1, BaseURL: ts.URL, HTTP: ts.Client(),
		Model: build(), Subset: subs[1], Cfg: clientCfg(),
		Rng: rand.New(rand.NewSource(14)),
	}
	ctx := context.Background()
	for _, c := range []*Client{cc, cr} {
		if _, err := c.Pull(ctx); err != nil {
			t.Fatal(err)
		}
		c.TrainLocal(0.05)
		if _, err := c.Push(ctx, 0); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.RoundsCompleted != 1 || st.UpdatesRaw != 1 || st.UpdatesCompressed != 1 {
		t.Fatalf("stats: %+v", st)
	}
	for name, v := range map[string]int64{
		"BytesInRaw": st.BytesInRaw, "BytesInCompressed": st.BytesInCompressed,
		"BytesOutRaw": st.BytesOutRaw, "BytesOutCompressed": st.BytesOutCompressed,
	} {
		if v <= 0 {
			t.Fatalf("%s = %d, want > 0", name, v)
		}
	}
	// Same model, same directionality: the compressed path must be several
	// times cheaper than raw float64 frames on both legs.
	if st.BytesOutCompressed*4 > st.BytesOutRaw {
		t.Fatalf("compressed pull %d B not ≪ raw pull %d B", st.BytesOutCompressed, st.BytesOutRaw)
	}
	if st.BytesInCompressed*4 > st.BytesInRaw {
		t.Fatalf("compressed push %d B not ≪ raw push %d B", st.BytesInCompressed, st.BytesInRaw)
	}
}

// The accuracy pin of the tentpole: error-fed 4-bit training over the real
// HTTP transport converges to within 0.10 clean accuracy of the raw-wire
// run on the seed task (both runs: 3 clients, 6 synchronous rounds).
func TestErrorFed4BitConvergesNearRaw(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed convergence test")
	}
	run := func(comp *Compression) float64 {
		const clients = 3
		const rounds = 6
		_, test, subs, build := testSetup(t, clients, 9)
		m := build()
		srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), clients)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		var wg sync.WaitGroup
		errs := make([]error, clients)
		for id := 0; id < clients; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				c := &Client{
					ID: id, BaseURL: ts.URL, HTTP: ts.Client(),
					Model: build(), Subset: subs[id], Cfg: clientCfg(),
					Rng:         rand.New(rand.NewSource(int64(100 + id))),
					Compression: comp,
				}
				errs[id] = c.RunRounds(context.Background(), rounds, 0.05)
			}(id)
		}
		wg.Wait()
		for id, err := range errs {
			if err != nil {
				t.Fatalf("client %d: %v", id, err)
			}
		}
		params, bn := srv.Snapshot()
		final := build()
		nn.ImportParams(final, params)
		nn.ImportBNStats(final, bn)
		return attack.CleanAccuracy(final, test, 16)
	}

	rawAcc := run(nil)
	compAcc := run(&Compression{Bits: 4})
	t.Logf("raw acc %.4f, error-fed 4-bit acc %.4f", rawAcc, compAcc)
	if rawAcc <= 0.5 {
		t.Fatalf("raw-wire run failed to learn: %.4f", rawAcc)
	}
	const gap = 0.10 // the stated accuracy gap pinned by this test
	if compAcc < rawAcc-gap {
		t.Fatalf("4-bit run %.4f more than %.2f below raw %.4f", compAcc, gap, rawAcc)
	}
}
