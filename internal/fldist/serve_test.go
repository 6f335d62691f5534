package fldist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
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
				s := NewServer(initP, initBN, 1, WithShards(4))
				s.buildSegments = segs
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
					if out := s.register(0, r, 1, buf, false); out != regAdmittedLast {
						t.Fatalf("register outcome %v", out)
					}
					s.advanceRound()
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

// TestPullAccounting pins the satellite fixes: compressed and raw pulls both
// carry Content-Length, the byte counters charge exactly what was written,
// pull percentiles populate from the serve ring, and a repeated raw pull
// reuses the snapshot's cached gob body byte-for-byte.
func TestPullAccounting(t *testing.T) {
	s := NewServer(synthVec(4096, 7), synthVec(16, 8), 2)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pull := func(codec string) (int, []byte, http.Header) {
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
		return resp.StatusCode, body, resp.Header
	}

	// The handler charges its counters after Write returns, which can be after
	// the client already holds the whole body: give the counter a moment to
	// reach the expected value instead of racing the handler's last lines.
	settled := func(read func(Stats) int64, want int64) int64 {
		got := read(s.Stats())
		for i := 0; i < 2000 && got != want; i++ {
			time.Sleep(time.Millisecond)
			got = read(s.Stats())
		}
		return got
	}
	outComp := func(st Stats) int64 { return st.BytesOutCompressed }
	outRaw := func(st Stats) int64 { return st.BytesOutRaw }

	comp := Compression{Bits: 8, Chunk: 64}
	code, compBody, hdr := pull(codecValue(comp))
	if code != http.StatusOK {
		t.Fatalf("compressed pull: %d", code)
	}
	if cl := hdr.Get("Content-Length"); cl != strconv.Itoa(len(compBody)) {
		t.Fatalf("compressed Content-Length %q, body %d bytes", cl, len(compBody))
	}
	if got := settled(outComp, int64(len(compBody))); got != int64(len(compBody)) {
		t.Fatalf("BytesOutCompressed = %d, want %d", got, len(compBody))
	}

	code, rawBody, hdr := pull("")
	if code != http.StatusOK {
		t.Fatalf("raw pull: %d", code)
	}
	if cl := hdr.Get("Content-Length"); cl != strconv.Itoa(len(rawBody)) {
		t.Fatalf("raw Content-Length %q, body %d bytes", cl, len(rawBody))
	}
	if got := settled(outRaw, int64(len(rawBody))); got != int64(len(rawBody)) {
		t.Fatalf("BytesOutRaw = %d, want %d", got, len(rawBody))
	}
	_, rawBody2, _ := pull("")
	if !bytes.Equal(rawBody, rawBody2) {
		t.Fatal("repeated raw pull served different bytes")
	}
	if got := settled(outRaw, 2*int64(len(rawBody))); got != 2*int64(len(rawBody)) {
		t.Fatalf("BytesOutRaw after second pull = %d, want %d", got, 2*len(rawBody))
	}
	if st := s.Stats(); st.PullP99Micros <= 0 {
		t.Fatalf("PullP99Micros = %v after 3 pulls, want > 0", st.PullP99Micros)
	}
}
