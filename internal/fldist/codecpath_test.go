package fldist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"fedprophet/internal/quant"
)

// Tests for what the codec-kernel rewrite changed on the server side: the
// O(k) finiteness rule of the sparse push path, the recycled served-build
// residual buffers, and the slow-peer bounds on the listeners.

// postDelta posts one compressed-update envelope, with the codec header a
// delta-downlink client declares when comp is non-nil.
func postDelta(t *testing.T, ts *httptest.Server, env []byte, comp *Compression) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/update", bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentTypeDelta)
	if comp != nil {
		req.Header.Set(codecHeader, codecValue(*comp))
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// hostileSparse forges a 4-bit, chunk-64 sparse frame of an n-value vector
// storing coordinates 3 (chunk 0) and 70, 71 (chunk 1) with codes +7 and +7,
// −7, whose two chunk scales are then overwritten with scales.
func hostileSparse(n int, scales []float64) []byte {
	v := make([]float64, n)
	v[3], v[70], v[71] = 1, 1, -1
	frame := quant.EncodeSparse(v, []int{3, 70, 71}, 4, 64, nil)
	// Header, k, three 1-byte index varints, then per chunk: scale, one code byte.
	off := quant.FrameHeaderSize + 4 + 3
	for _, s := range scales {
		binary.LittleEndian.PutUint64(frame[off:], math.Float64bits(s))
		off += 8 + 1
	}
	return frame
}

// TestSparsePushHostileCoordinateRejected pins the sparse path's finiteness
// rule now that the O(n) sweep is gone: a frame whose wire scale makes one
// written coordinate overflow is a 400 that admits nothing, and the pooled
// buffer it half-filled carries nothing into the next honest push.
func TestSparsePushHostileCoordinateRejected(t *testing.T) {
	initParams := synthVec(500, 71)
	initBN := synthVec(6, 72)
	srv := NewServer(initParams, initBN, 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := &synthClient{id: 0, weight: 2, comp: &Compression{Bits: 4, Chunk: 64, TopK: 30}}
	if r := c.pull(t, ts); r != 0 {
		t.Fatalf("pulled round %d, want 0", r)
	}
	for name, scales := range map[string][]float64{
		"+Inf sum":             {1e-3, math.MaxFloat64},
		"first chunk overflow": {math.MaxFloat64, 1e-3},
	} {
		// Three stored coordinates in two chunks; honest codes (+7; +7, −7),
		// one hostile scale patched in. 7·MaxFloat64 and −7·MaxFloat64
		// overflow.
		hostile := hostileSparse(len(initParams), scales)
		env, err := encodeUpdateEnvelope(9, 0, 1, hostile, quant.EncodeRaw(make([]float64, len(initBN))))
		if err != nil {
			t.Fatal(err)
		}
		if status, body := postDelta(t, ts, env, nil); status != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", name, status, body)
		}
		if st := srv.Stats(); st.UpdatesCompressed != 0 || st.UpdatesSparse != 0 || srv.Round() != 0 {
			t.Fatalf("%s: rejected push was counted: compressed=%d sparse=%d round=%d",
				name, st.UpdatesCompressed, st.UpdatesSparse, srv.Round())
		}
	}

	status, dup, rec, bn := c.sparsePush(t, ts, 0)
	if status != http.StatusOK || dup {
		t.Fatalf("honest sparse push after the hostile ones: status %d dup %v", status, dup)
	}
	gotP, gotBN := srv.Snapshot()
	for i := range rec {
		if math.Float64bits(gotP[i]) != math.Float64bits(rec[i]) {
			t.Fatalf("params[%d] = %v, want base+scatter-add %v (rejected push leaked through the pool)", i, gotP[i], rec[i])
		}
	}
	for i := range bn {
		if gotBN[i] != bn[i] {
			t.Fatalf("bn[%d] = %v, want %v", i, gotBN[i], bn[i])
		}
	}
}

// TestSparsePushNonFiniteBaseRejected pins the other half of the invariant:
// the sparse path trusts the base only because its finiteness was proven when
// it was built. A served base can be non-finite though the model is finite —
// a value of MaxFloat64 dequantises to 7·(MaxFloat64/7) = +Inf — and a
// delta-chain origin copies a model that may already have overflowed; a
// sparse push that never touches the bad coordinate is still a 400, as it was
// under the per-push sweep.
func TestSparsePushNonFiniteBaseRejected(t *testing.T) {
	honest := func(n int, comp Compression) []byte {
		d := make([]float64, n)
		d[5], d[130] = 0.25, -0.5
		frame := quant.EncodeSparse(d, []int{5, 130}, comp.Bits, comp.Chunk, nil)
		env, err := encodeUpdateEnvelope(0, 0, 1, frame, quant.EncodeRaw(nil))
		if err != nil {
			t.Fatal(err)
		}
		return env
	}

	t.Run("served base", func(t *testing.T) {
		initParams := synthVec(300, 73)
		initParams[200] = math.MaxFloat64
		srv := NewServer(initParams, nil, 1)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		comp, _ := Compression{Bits: 4, Chunk: 64, TopK: 2}.normalize()
		sm, err := srv.getServed(comp.serveKey(), -1)
		if err != nil {
			t.Fatal(err)
		}
		if sm.finite || !math.IsInf(sm.params[200], 1) {
			t.Fatalf("served base: finite=%v params[200]=%v, want false and +Inf", sm.finite, sm.params[200])
		}
		if status, body := postDelta(t, ts, honest(len(initParams), comp), nil); status != http.StatusBadRequest {
			t.Fatalf("sparse push against a non-finite served base: status %d (%s), want 400", status, body)
		}
		if srv.Round() != 0 || srv.Stats().UpdatesCompressed != 0 {
			t.Fatal("push against a non-finite base was admitted")
		}
	})

	t.Run("delta-chain base", func(t *testing.T) {
		initParams := synthVec(300, 74)
		initParams[200] = math.Inf(-1)
		srv := NewServer(initParams, nil, 1)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		comp, _ := Compression{Bits: 4, Chunk: 64, TopK: 2, Delta: true}.normalize()
		c := &synthClient{comp: &comp}
		c.pull(t, ts) // seeds the chain origin from the snapshot
		if e, ok := srv.deltaBaseAt(comp, 0); !ok || e.finite {
			t.Fatalf("chain origin: ok=%v finite=%v, want true and false", ok, e.finite)
		}
		if status, body := postDelta(t, ts, honest(len(initParams), comp), &comp); status != http.StatusBadRequest {
			t.Fatalf("sparse push against a non-finite chain base: status %d (%s), want 400", status, body)
		}
		if srv.Round() != 0 || srv.Stats().UpdatesCompressed != 0 {
			t.Fatal("push against a non-finite chain base was admitted")
		}
	})
}

// TestBuildRecyclesOnlyDeadResiduals drives one variant through enough rounds
// that builds write their residual into recycled (dirty) vectors, and holds
// every served body, base and carried residual to the sequential oracle. It
// also pins which buffer comes back: the residual consumed by the previous
// build — never a body or a base. One round passes with nobody pulling the
// variant: its residual must carry across that round into the next build in
// both modes, the synchronous quorum and the buffered server alike, and
// once consumed it is not recycled — a late build on the unbuilt round may
// still read it — so the build after that one allocates.
func TestBuildRecyclesOnlyDeadResiduals(t *testing.T) {
	const rounds, skipped = 8, 3
	initP := synthVec(3*256+41, 81)
	initBN := synthVec(8, 82)
	comp := Compression{Bits: 4, Chunk: 256}
	for _, mode := range []struct {
		name string
		opts []ServerOption
	}{
		{"sync", nil},
		{"buffered", []ServerOption{WithBufferedAggregation(1, 2)}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			s := NewServer(initP, initBN, 1, append(mode.opts, withSegments(2))...)
			var prevErr []float64
			var residuals [][]float64 // nextErr of each build, as served
			for r := 0; r < rounds; r++ {
				snap := s.model.Load()
				if r != skipped {
					wantDeq, wantNext, wantBody := seqServedBody(r, snap.params, snap.bn, prevErr, comp)
					sm, err := s.getServed(comp, -1)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(sm.body, wantBody) {
						t.Fatalf("round %d: served body differs from the sequential encoder", r)
					}
					for i := range wantDeq {
						if math.Float64bits(sm.params[i]) != math.Float64bits(wantDeq[i]) ||
							math.Float64bits(sm.nextErr[i]) != math.Float64bits(wantNext[i]) {
							t.Fatalf("round %d [%d]: base %v residual %v, want %v %v", r, i, sm.params[i], sm.nextErr[i], wantDeq[i], wantNext[i])
						}
					}
					if !sm.finite {
						t.Fatalf("round %d: finite model built a base marked non-finite", r)
					}
					if j := len(residuals); j >= 2 {
						reused := &sm.nextErr[0] == &residuals[j-2][0]
						if want := r != skipped+2; reused != want {
							t.Fatalf("round %d: build reused the residual the previous build consumed: %v, want %v", r, reused, want)
						}
					}
					residuals = append(residuals, sm.nextErr)
					prevErr = wantNext
				}
				buf := &updateBuf{params: perturb(initP, 0, r), bn: perturb(initBN, 0, r)}
				if out, _ := s.register(0, r, 1, buf, snap.params, snap.bn, nil); out != regAdmittedLast {
					t.Fatalf("register outcome %v", out)
				}
				s.commit()
			}
		})
	}
}

// TestBuildRecyclingUnderChurn is the race detector's view of the recycling
// rule: pullers build two variants as fast as they can while rounds advance
// under them, so builds go stale mid-flight, residuals are recycled at every
// advance and recycled vectors are rewritten by the next builds. A vector
// handed out while anything could still read it is a reported race; beyond
// that, every model a puller got must decode to the base it claims.
func TestBuildRecyclingUnderChurn(t *testing.T) {
	const rounds = 120
	initP := synthVec(8*256+9, 85)
	initBN := synthVec(4, 86)
	s := NewServer(initP, initBN, 1, withSegments(2))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, comp := range []Compression{{Bits: 8, Chunk: 256}, {Bits: 4, Chunk: 256}, {Bits: 8, Chunk: 256}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sm, err := s.getServed(comp, -1)
				if err != nil {
					t.Error(err)
					return
				}
				_, params, _, err := decodeModelEnvelopeT(bytes.NewReader(sm.body))
				if err != nil {
					t.Error(err)
					return
				}
				for i := range params {
					if math.Float64bits(params[i]) != math.Float64bits(sm.params[i]) {
						t.Errorf("round %d bits=%d: body decodes to %v at [%d], served base says %v",
							sm.round, comp.Bits, params[i], i, sm.params[i])
						return
					}
				}
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		buf := &updateBuf{params: perturb(initP, 0, r), bn: perturb(initBN, 0, r)}
		if out, _ := s.register(0, r, 1, buf, s.model.Load().params, s.model.Load().bn, nil); out != regAdmittedLast {
			t.Fatalf("register outcome %v", out)
		}
		s.commit()
	}
	close(stop)
	wg.Wait()
}

// gatedWriter is a ResponseWriter that takes a body one KiB at a time and
// parks after the first — a puller that has read the head of a body and then
// stalls — until released.
type gatedWriter struct {
	hdr     http.Header
	buf     bytes.Buffer
	stalled chan struct{} // closed when the handler is parked mid-body
	release chan struct{}
}

func (w *gatedWriter) Header() http.Header { return w.hdr }
func (w *gatedWriter) WriteHeader(int)     {}
func (w *gatedWriter) Write(p []byte) (int, error) {
	for rest := p; len(rest) > 0; {
		k := min(len(rest), 1024)
		first := w.buf.Len() == 0
		w.buf.Write(rest[:k])
		rest = rest[k:]
		if first {
			close(w.stalled)
			<-w.release
		}
	}
	return len(p), nil
}

// TestSlowPullSurvivesLaterBuilds is the -race pin on the recycling rule: a
// pull handler parked mid-Write on round r's body must deliver round r's
// exact bytes after rounds r+1 and r+2 have built (and recycled residuals)
// around it — bodies and bases are never reused.
func TestSlowPullSurvivesLaterBuilds(t *testing.T) {
	initP := synthVec(16*256+5, 91)
	initBN := synthVec(8, 92)
	comp := Compression{Bits: 8, Chunk: 256}
	s := NewServer(initP, initBN, 1, withSegments(2))
	h := s.Handler()
	advance := func(r int) {
		if _, err := s.getServed(comp, -1); err != nil {
			t.Fatal(err)
		}
		buf := &updateBuf{params: perturb(initP, 0, r), bn: perturb(initBN, 0, r)}
		if out, _ := s.register(0, r, 1, buf, s.model.Load().params, s.model.Load().bn, nil); out != regAdmittedLast {
			t.Fatalf("register outcome %v", out)
		}
		s.commit()
	}
	advance(0)
	advance(1) // round 2's build below reads a carried residual

	sm, err := s.getServed(comp, -1)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), sm.body...)
	wantBase := append([]float64(nil), sm.params...)

	w := &gatedWriter{hdr: http.Header{}, stalled: make(chan struct{}), release: make(chan struct{})}
	req := httptest.NewRequest(http.MethodGet, "/model", nil)
	req.Header.Set(codecHeader, codecValue(comp))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.ServeHTTP(w, req)
	}()
	<-w.stalled
	for r := 2; r < 6; r++ {
		advance(r)
	}
	close(w.release)
	wg.Wait()
	if !bytes.Equal(w.buf.Bytes(), want) {
		t.Fatal("a pull parked across later rounds' builds delivered different bytes")
	}
	for i := range wantBase {
		if math.Float64bits(sm.params[i]) != math.Float64bits(wantBase[i]) {
			t.Fatalf("retired round's base[%d] changed under a holder", i)
		}
	}
}

// TestStalledPeerDropped pins the slow-peer bound: a connection that stalls
// mid-header is closed by the server once the header deadline passes and its
// goroutine exits — Serve's graceful shutdown, which waits for every active
// connection, returns promptly — while an honest push on another connection
// completes.
func TestStalledPeerDropped(t *testing.T) {
	if hs := NewHTTPServer(http.NotFoundHandler()); hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("NewHTTPServer: ReadHeaderTimeout %v IdleTimeout %v, want both bounded", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}

	initParams := synthVec(500, 95)
	srv := NewServer(initParams, nil, 1)
	srv.headerTimeout = 150 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "POST /update HTTP/1.1\r\nHost: x\r\nContent-Ty"); err != nil {
		t.Fatal(err)
	}

	// The honest push, while the other connection sits mid-header.
	body := rawBodyT(t, 0, 0, 1, perturb(initParams, 0, 0), nil)
	hc := &http.Client{}
	resp, err := hc.Post("http://"+ln.Addr().String()+"/update", contentTypeDelta, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || srv.Round() != 1 {
		t.Fatalf("honest push beside a stalled peer: status %d, round %d", resp.StatusCode, srv.Round())
	}

	// The server may answer 408 before it hangs up; what matters is that it
	// does hang up.
	stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(stalled); err != nil {
		t.Fatalf("connection stalled mid-header was not closed by the header deadline: %v", err)
	}

	hc.CloseIdleConnections()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown after dropping the stalled peer: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("shutdown still waiting on a connection: the stalled peer's goroutine did not exit")
	}
}

// TestFirstPullHeaderOnlyBoundedAlloc pins the unknown-shape pull (an edge's
// first contact, pull(ctx, -1, -1)): a model envelope whose params frame
// declares 2³²−1 values but carries no payload must fail with ErrCodec after
// allocating what its bytes back — not 32 GiB sized from the header.
func TestFirstPullHeaderOnlyBoundedAlloc(t *testing.T) {
	envelope := func(bits byte, chunk uint32) []byte {
		b := append([]byte(modelMagic), envVersion, 0, 0, 0, 0)
		b = append(b, "FPQ1"...)
		b = append(b, 1, bits)
		b = binary.LittleEndian.AppendUint32(b, math.MaxUint32)
		return binary.LittleEndian.AppendUint32(b, chunk)
	}
	for name, body := range map[string][]byte{
		"raw":             envelope(quant.RawBits, 0),
		"dense":           envelope(8, quant.DefaultChunk),
		"dense one chunk": envelope(4, math.MaxUint32),
		"sparse":          envelope(0x80|4, quant.DefaultChunk),
	} {
		c := &Client{}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.streamModelEnvelope(bytes.NewReader(body), -1, -1)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, quant.ErrCodec) {
			t.Fatalf("%s: error %v, want ErrCodec", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s: a %d-byte body allocated %d bytes", name, len(body), grew)
		}
	}
}

// TestDeltaPullHostileDenseEntryRejected pins the range check on dense
// delta frames: an FPD1 entry whose dense params frame has a scale near
// MaxFloat64 would add ±Inf into the chain base; the client must reject it
// before writing, exactly as it rejects a hostile sparse entry.
func TestDeltaPullHostileDenseEntryRejected(t *testing.T) {
	const n, nBN = 300, 4
	base := synthVec(n, 81)
	c := &Client{baseParams: append([]float64(nil), base...), baseBN: make([]float64, nBN), heldRound: 3}

	delta := synthVec(n, 82)
	pFrame := quant.Encode(quant.QuantizeChunks(delta, 8, 64))
	// Every chunk's scale becomes MaxFloat64: any code ≥ 2 overflows.
	for off := quant.FrameHeaderSize; off < len(pFrame); off += 8 + 64 {
		binary.LittleEndian.PutUint64(pFrame[off:], math.Float64bits(math.MaxFloat64))
	}
	body := appendDeltaHeader(nil, 3, 4, 1)
	body = binary.LittleEndian.AppendUint32(body, 4)
	body = append(body, pFrame...)
	body = append(body, quant.Encode(quant.QuantizeChunks(make([]float64, nBN), 8, 64))...)

	_, err := c.streamDeltaEnvelope(bytes.NewReader(body), n, nBN)
	if !errors.Is(err, quant.ErrCodec) {
		t.Fatalf("hostile dense delta entry: error %v, want ErrCodec", err)
	}
	for i, x := range c.baseParams {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			t.Fatalf("chain base[%d] = %v after a rejected entry", i, x)
		}
	}
}
