package fldist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedprophet/internal/quant"
)

// Tests for the serve plane: the segment-parallel served-model build, the
// per-variant single-flight cache, and the pull-side accounting. All run
// under -race via the standard suite.

// seqServedBody replays the pre-refactor sequential served-model build — the
// whole EF-adjusted vector through quant.EncodeStream in one pass — and
// returns the envelope bytes plus the downlink residual to carry forward.
// This is the oracle the segment-parallel build must reproduce byte-for-byte.
func seqServedBody(round int, params, bn, prevErr []float64, c Compression) (deq, nextErr []float64, enc []byte) {
	n := len(params)
	v := append([]float64(nil), params...)
	if len(prevErr) == n {
		for i := range v {
			v[i] += prevErr[i]
		}
	}
	deq = make([]float64, n)
	var buf bytes.Buffer
	buf.WriteString(modelMagic)
	buf.WriteByte(envVersion)
	var rd [4]byte
	binary.LittleEndian.PutUint32(rd[:], uint32(round))
	buf.Write(rd[:])
	if err := quant.EncodeStream(&buf, v, c.Bits, c.Chunk, deq); err != nil {
		panic(fmt.Sprintf("seqServedBody: %v", err))
	}
	buf.Write(quant.EncodeRaw(bn))
	for i := range v {
		v[i] -= deq[i]
	}
	return deq, v, buf.Bytes()
}

// TestServeSegmentInvariance pins the acceptance matrix: the served body is
// bit-identical to the pre-refactor sequential encoder across segment counts
// {1, 4, 8} × GOMAXPROCS {1, 4}, over multiple rounds so the downlink
// error-feedback residual (folded per segment in the parallel build) is
// exercised, not just the first clean encode.
func TestServeSegmentInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const rounds = 3
	initP := synthVec(8*1024+37, 11) // ragged tail against every chunk size below
	initBN := synthVec(32, 12)
	for _, comp := range []Compression{{Bits: 8, Chunk: 64}, {Bits: 4, Chunk: 256}} {
		// The model evolves independently of the codec here (one raw update
		// per round), so the sequential oracle can be replayed standalone.
		var wantBodies [][]byte
		var wantDeqs [][]float64
		params, bn := initP, initBN
		var prevErr []float64
		for r := 0; r < rounds; r++ {
			deq, next, enc := seqServedBody(r, params, bn, prevErr, comp)
			wantBodies = append(wantBodies, enc)
			wantDeqs = append(wantDeqs, deq)
			prevErr = next
			params, bn = perturb(initP, 0, r), perturb(initBN, 0, r)
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for _, segs := range []int{1, 4, 8} {
				s := NewServer(initP, initBN, 1, withSegments(segs))
				for r := 0; r < rounds; r++ {
					sm, err := s.getServed(comp, -1)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(sm.body, wantBodies[r]) {
						t.Fatalf("bits=%d chunk=%d segs=%d procs=%d round %d: served body differs from sequential encoder",
							comp.Bits, comp.Chunk, segs, procs, r)
					}
					for i := range sm.params {
						if sm.params[i] != wantDeqs[r][i] {
							t.Fatalf("bits=%d chunk=%d segs=%d procs=%d round %d: served base[%d] = %v, want %v",
								comp.Bits, comp.Chunk, segs, procs, r, i, sm.params[i], wantDeqs[r][i])
						}
					}
					// One raw quorum-of-1 update advances the round so the
					// next build runs the committed-EF path.
					buf := &updateBuf{params: perturb(initP, 0, r), bn: perturb(initBN, 0, r)}
					if out, _ := s.register(0, r, 1, buf, s.model.Load().params, s.model.Load().bn, nil); out != regAdmittedLast {
						t.Fatalf("register outcome %v", out)
					}
					s.commit()
				}
			}
		}
	}
}

// TestDistinctVariantsBuildConcurrently pins that two codec variants' cache
// builds overlap: each build blocks in the test hook until the other has
// also started, so if one variant's O(model) build excluded the other (the
// pre-refactor serveMu behavior) both pulls would deadlock against the hook
// timeout and fail the test.
func TestDistinctVariantsBuildConcurrently(t *testing.T) {
	s := NewServer(synthVec(20000, 3), synthVec(16, 4), 1)
	barrier := make(chan struct{})
	var arrived atomic.Int32
	var serialized atomic.Bool
	s.buildHook = func(Compression) {
		if arrived.Add(1) == 2 {
			close(barrier)
		}
		select {
		case <-barrier:
		case <-time.After(5 * time.Second):
			serialized.Store(true)
		}
	}
	variants := []Compression{{Bits: 8, Chunk: 64}, {Bits: 4, Chunk: 256}}
	var wg sync.WaitGroup
	for _, c := range variants {
		wg.Add(1)
		go func(c Compression) {
			defer wg.Done()
			if _, err := s.getServed(c, -1); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
	if serialized.Load() {
		t.Fatal("one variant's build blocked behind the other's")
	}
	if n := s.servedBuilds.Load(); n != 2 {
		t.Fatalf("served builds = %d, want 2", n)
	}
}

// TestRacingPullsSingleBuild pins the per-variant single-flight latch: N
// racing pulls for one variant trigger exactly one build, and every pull
// returns the identical body.
func TestRacingPullsSingleBuild(t *testing.T) {
	s := NewServer(synthVec(20000, 5), synthVec(16, 6), 1)
	comp := Compression{Bits: 8, Chunk: 64}
	const racers = 16
	start := make(chan struct{})
	bodies := make([][]byte, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			sm, err := s.getServed(comp, -1)
			if err != nil {
				t.Error(err)
				return
			}
			bodies[i] = sm.body
		}(i)
	}
	close(start)
	wg.Wait()
	if n := s.servedBuilds.Load(); n != 1 {
		t.Fatalf("%d racing pulls ran %d builds, want exactly 1", racers, n)
	}
	if st := s.Stats(); st.ServedBuilds != 1 {
		t.Fatalf("Stats.ServedBuilds = %d, want 1", st.ServedBuilds)
	}
	for i := 1; i < racers; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("racer %d saw a different body", i)
		}
	}
}

// TestPullAccounting pins the pull-side accounting: compressed and raw pulls
// both carry Content-Length, the byte and pull counters charge exactly what
// was written — already when the client holds the whole body, since they are
// charged before the body leaves — pull percentiles populate from the serve
// ring, and a repeated raw pull reuses the snapshot's cached raw body
// byte-for-byte.
func TestPullAccounting(t *testing.T) {
	s := NewServer(synthVec(4096, 7), synthVec(16, 8), 2)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pull := func(codec string) []byte {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/model", nil)
		if err != nil {
			t.Fatal(err)
		}
		if codec != "" {
			req.Header.Set(codecHeader, codec)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pull %q: %d", codec, resp.StatusCode)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Fatalf("pull %q: Content-Length %q, body %d bytes", codec, cl, len(body))
		}
		return body
	}

	var want Stats
	check := func(what string) {
		t.Helper()
		st := s.Stats()
		if st.BytesOutRaw != want.BytesOutRaw || st.BytesOutCompressed != want.BytesOutCompressed ||
			st.BytesOutDelta != want.BytesOutDelta || st.BytesOutCold != want.BytesOutCold ||
			st.DeltaPulls != want.DeltaPulls || st.ColdPulls != want.ColdPulls {
			t.Fatalf("after %s: counters raw %d comp %d delta %d/%d cold %d/%d, clients read raw %d comp %d delta %d/%d cold %d/%d",
				what, st.BytesOutRaw, st.BytesOutCompressed, st.BytesOutDelta, st.DeltaPulls, st.BytesOutCold, st.ColdPulls,
				want.BytesOutRaw, want.BytesOutCompressed, want.BytesOutDelta, want.DeltaPulls, want.BytesOutCold, want.ColdPulls)
		}
	}

	dense := codecValue(Compression{Bits: 8, Chunk: 64})
	delta := codecValue(Compression{Bits: 8, Chunk: 64, Delta: true})
	var rawBody []byte
	for i := 0; i < 2000; i++ {
		switch i % 4 {
		case 0:
			body := pull("")
			if rawBody != nil && !bytes.Equal(body, rawBody) {
				t.Fatal("repeated raw pull served different bytes")
			}
			rawBody = body
			want.BytesOutRaw += int64(len(body))
		case 1:
			want.BytesOutCompressed += int64(len(pull(dense)))
		case 2:
			n := int64(len(pull(delta)))
			want.BytesOutCompressed += n
			want.BytesOutCold += n
			want.ColdPulls++
		case 3:
			n := int64(len(pull(delta + ";base=0")))
			want.BytesOutCompressed += n
			want.BytesOutDelta += n
			want.DeltaPulls++
		}
		check(fmt.Sprintf("pull %d", i))
	}
	if st := s.Stats(); st.PullP99Micros <= 0 {
		t.Fatalf("PullP99Micros = %v after 2000 pulls, want > 0", st.PullP99Micros)
	}

	// Handler-direct, without the scheduling luck the loop above needs: at
	// the moment a body is handed to Write the counters already hold all of
	// it, and a puller that hangs up mid-body leaves them at exactly the
	// bytes that left. The indices are Stats' raw, compressed, delta and cold
	// byte counters.
	outs := func() [4]int64 {
		st := s.Stats()
		return [4]int64{st.BytesOutRaw, st.BytesOutCompressed, st.BytesOutDelta, st.BytesOutCold}
	}
	for _, tc := range []struct {
		codec   string
		charged []int
	}{
		{"", []int{0}}, {dense, []int{1}}, {delta, []int{1, 3}}, {delta + ";base=0", []int{1, 2}},
	} {
		before := outs()
		var during [4]int64
		sent := -1
		w := hangupWriter{ResponseWriter: httptest.NewRecorder(), onWrite: func(b []byte) {
			during, sent = outs(), len(b)
		}}
		req := httptest.NewRequest(http.MethodGet, "/model", nil)
		if tc.codec != "" {
			req.Header.Set(codecHeader, tc.codec)
		}
		s.Handler().ServeHTTP(w, req)
		if sent <= 0 {
			t.Fatalf("pull %q wrote no body", tc.codec)
		}
		after := outs()
		for _, i := range tc.charged {
			if got := during[i] - before[i]; got != int64(sent) {
				t.Fatalf("pull %q: counter %d charged %d of a %d-byte body before Write", tc.codec, i, got, sent)
			}
			if got := after[i] - before[i]; got != int64(sent/2) {
				t.Fatalf("pull %q: counter %d ends at %d after %d of %d bytes left", tc.codec, i, got, sent/2, sent)
			}
		}
	}
}

// hangupWriter hands each body to onWrite, then accepts only its first half,
// as a puller that hangs up mid-body does.
type hangupWriter struct {
	http.ResponseWriter
	onWrite func([]byte)
}

func (w hangupWriter) Write(b []byte) (int, error) {
	w.onWrite(b)
	return len(b) / 2, io.ErrShortWrite
}

// TestRetainedRoundBuildsOnDemand pins that a served variant belongs to its
// snapshot: on a buffered server, the first build of a variant for a round
// that has already retired equals byte for byte (body, base, finite) the
// variant a twin server built while that round was current, and a dense push
// against it is admitted with bit-identical buffered values on both.
func TestRetainedRoundBuildsOnDemand(t *testing.T) {
	initP, initBN := synthVec(3*256+41, 95), synthVec(8, 96)
	comp := Compression{Bits: 8, Chunk: 256}
	mk := func() *Server { return NewServer(initP, initBN, 1, withSegments(2), WithBufferedAggregation(3, 2)) }
	eager, lazy := mk(), mk()
	advance := func(s *Server, r int) {
		t.Helper()
		snap := s.model.Load()
		buf := &updateBuf{params: perturb(initP, 0, r), bn: perturb(initBN, 0, r)}
		if out, _ := s.register(0, r, 1, buf, snap.params, snap.bn, nil); out != regAdmitted {
			t.Fatalf("register outcome %v", out)
		}
		s.commit()
	}
	served := func(s *Server, round int) *servedModel {
		t.Helper()
		sm, err := s.getServed(comp, round)
		if err != nil {
			t.Fatal(err)
		}
		return sm
	}
	// Both build in round 0, so round 1 enters with a real residual; only
	// eager builds round 1 while it is current.
	for _, s := range []*Server{eager, lazy} {
		served(s, -1)
		advance(s, 0)
	}
	want := served(eager, -1)
	advance(eager, 1)
	advance(lazy, 1)

	got := served(lazy, 1)
	if n := lazy.servedBuilds.Load(); n != 2 {
		t.Fatalf("lazy server ran %d builds, want 2", n)
	}
	if got.round != 1 || !bytes.Equal(got.body, want.body) || got.finite != want.finite {
		t.Fatalf("retained build: round %d finite %v, want round 1 finite %v and the twin's body",
			got.round, got.finite, want.finite)
	}
	for i := range want.params {
		if math.Float64bits(got.params[i]) != math.Float64bits(want.params[i]) {
			t.Fatalf("retained base[%d] = %v, want %v", i, got.params[i], want.params[i])
		}
	}

	d := make([]float64, len(initP))
	for i := range d {
		d[i] = 1e-2 * float64(i%7-3)
	}
	body, err := encodeUpdateEnvelope(7, 1, 2, quant.Encode(quant.QuantizeChunks(d, comp.Bits, comp.Chunk)),
		quant.EncodeRaw(synthVec(len(initBN), 97)))
	if err != nil {
		t.Fatal(err)
	}
	var bufs []*updateBuf
	for _, s := range []*Server{eager, lazy} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/update", bytes.NewReader(body)))
		if rec.Code != http.StatusOK || len(s.pending) != 1 {
			t.Fatalf("push against retained round 1: status %d, %d buffered", rec.Code, len(s.pending))
		}
		bufs = append(bufs, s.pending[0].buf)
	}
	for _, v := range [][2][]float64{{bufs[0].params, bufs[1].params}, {bufs[0].bn, bufs[1].bn}} {
		for i := range v[0] {
			if math.Float64bits(v[0][i]) != math.Float64bits(v[1][i]) {
				t.Fatalf("buffered value [%d]: %v on the lazy server, %v on the eager one", i, v[1][i], v[0][i])
			}
		}
	}
}

// BenchmarkServedBuild times one served-variant build (buildServed) at the
// size of the benchmark's serve.push model — 234,562 parameters and 1,056
// BatchNorm values — for both variants its compressed pushes decode against,
// on 1 and 2 segments, with a downlink residual carried in as in every round
// after the first. MB/s counts the parameters' float64 bytes, so it reads
// against BenchmarkCodecKernels' copy row; the residual the build hands out
// goes back to the free list, as a retired round returns it.
func BenchmarkServedBuild(b *testing.B) {
	const nP, nBN = 234_562, 1_056
	for _, c := range []Compression{{Bits: 8, Chunk: 256}, {Bits: 4, Chunk: 256}} {
		for _, segs := range []int{1, 2} {
			b.Run(fmt.Sprintf("bits=%d/segs=%d", c.Bits, segs), func(b *testing.B) {
				s := NewServer(synthVec(nP, 1), synthVec(nBN, 2), 1, withSegments(segs))
				snap := *s.model.Load()
				snap.downErr = map[Compression]residual{c: {v: synthVec(nP, 3)}}
				b.SetBytes(8 * nP)
				for i := 0; i < b.N; i++ {
					sm := s.buildServed(&snap, c)
					s.errFree = append(s.errFree[:0], sm.nextErr)
				}
			})
		}
	}
}
