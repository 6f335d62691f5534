package fldist

import (
	"bytes"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"fedprophet/internal/quant"
)

// FuzzUpdateEnvelope drives the one push handler with arbitrary POST /update
// bodies — seeded with a raw, a dense 8-bit and a sparse 4-bit FPU1 push —
// against a synchronous and a buffered server, each committing on every
// admission: the handler never panics, answers only 200, 400 or 409, and the
// model it commits after a 200 stays finite.
func FuzzUpdateEnvelope(f *testing.F) {
	const nP, nBN, chunk = 96, 4, 32
	initP, initBN := synthVec(nP, 1), synthVec(nBN, 2)
	d, dBN := make([]float64, nP), make([]float64, nBN)
	for i := range d {
		d[i] = 1e-2 * float64(i%7-3)
	}
	for i := range dBN {
		dBN[i] = 1e-3 * float64(i+1)
	}
	dense, err := encodeUpdateEnvelope(1, 0, 2, quant.Encode(quant.QuantizeChunks(d, 8, chunk)), quant.EncodeRaw(dBN))
	if err != nil {
		f.Fatal(err)
	}
	sparse, err := encodeUpdateEnvelope(2, 0, 3,
		quant.EncodeSparse(d, quant.TopKIndices(d, 12), 4, chunk, nil),
		quant.Encode(quant.QuantizeChunks(dBN, bnDeltaBits, chunk)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rawBodyT(f, 0, 0, 1, perturb(initP, 0, 0), perturb(initBN, 0, 0)))
	f.Add(dense)
	f.Add(sparse)
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, srv := range []*Server{
			NewServer(initP, initBN, 1, WithShards(2)),
			NewServer(initP, initBN, 1, WithShards(2), WithBufferedAggregation(1, 1)),
		} {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/update", bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusOK:
				p, bn := srv.Snapshot()
				for _, x := range append(p, bn...) {
					if math.IsNaN(x) || math.IsInf(x, 0) {
						t.Fatalf("buffered=%v: a 200 committed a non-finite model", srv.async)
					}
				}
			case http.StatusBadRequest, http.StatusConflict:
			default:
				t.Fatalf("buffered=%v: status %d", srv.async, rec.Code)
			}
		}
	})
}

// FuzzCodecHeader drives parseCodec with arbitrary X-Fldist-Codec values —
// seeded with every parameter a client sends, `;topk=K;delta=1;base=R`
// included. Invariants: no panic; a rejected value reports ok=false; the
// declared base is −1 (absent) or a round; and an accepted value's
// codecValue re-parses to the same Compression, so the echo a server sends
// back is exactly what it negotiated.
func FuzzCodecHeader(f *testing.F) {
	for _, v := range []string{
		"", "fpq1;bits=8;chunk=256", "fpq1;bits=4", "fpq1;bits=4;chunk=64;topk=30;delta=1;base=7",
		" fpq1 ; bits=2 ;chunk=1;base=0", "fpq1;bits=9", "fpq1;delta=2", "fpq1;base=-1", "gzip",
		"fpq1;bits=+8;chunk=0x10", "fpq1;topk=99999999999999999999",
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		c, base, ok, err := parseCodec(v)
		if err != nil || !ok {
			if ok {
				t.Fatalf("%q: error %v with ok=true", v, err)
			}
			return
		}
		if base < -1 {
			t.Fatalf("%q: base %d below −1", v, base)
		}
		re, reBase, reOK, reErr := parseCodec(codecValue(c))
		if reErr != nil || !reOK || re != c || reBase != -1 {
			t.Fatalf("%q parsed to %+v, whose codecValue %q re-parses to %+v (base %d, ok %v, err %v)",
				v, c, codecValue(c), re, reBase, reOK, reErr)
		}
	})
}

// loggedAdmit is one admission record inside a finished log: its byte span,
// its sequence number and its payload.
type loggedAdmit struct {
	off, end int
	seq      uint64
	payload  []byte
}

// bufferedAdmitLog writes a buffered WAL (K = 3, window 2) through the live
// push handler: the initial commit, then two admissions left uncommitted — a
// raw push, logged in delta form, and a dense 8-bit push with a raw BN frame,
// logged as its wire frames. It returns the log's bytes and those two
// records, in log order.
func bufferedAdmitLog(tb testing.TB) ([]byte, []loggedAdmit) {
	tb.Helper()
	const nP, nBN = 96, 4
	initP, initBN := synthVec(nP, 1), synthVec(nBN, 2)
	dir := tb.TempDir()
	srv := NewServer(initP, initBN, 1, WithShards(2), WithBufferedAggregation(3, 2), WithWAL(dir),
		withWarnf(func(string, ...any) {}))
	d, dBN := make([]float64, nP), make([]float64, nBN)
	for i := range d {
		d[i] = 1e-2 * float64(i%7-3)
	}
	for i := range dBN {
		dBN[i] = 1e-3 * float64(i+1)
	}
	dense, err := encodeUpdateEnvelope(1, 0, 2, quant.Encode(quant.QuantizeChunks(d, 8, 64)), quant.EncodeRaw(dBN))
	if err != nil {
		tb.Fatal(err)
	}
	for _, body := range [][]byte{rawBodyT(tb, 0, 0, 3, perturb(initP, 0, 0), perturb(initBN, 0, 0)), dense} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/update", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			tb.Fatalf("push: status %d: %s", rec.Code, rec.Body)
		}
	}
	if err := srv.Close(); err != nil {
		tb.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, walLogName))
	if err != nil {
		tb.Fatal(err)
	}
	var admits []loggedAdmit
	for off := 0; off < len(log); {
		typ, seq, payload, n, err := parseWALRecord(log[off:])
		if err != nil {
			tb.Fatal(err)
		}
		if typ == walRecAdmit {
			admits = append(admits, loggedAdmit{off: off, end: off + n, seq: seq, payload: payload})
		}
		off += n
	}
	if len(admits) != 2 {
		tb.Fatalf("log holds %d admission records, want 2", len(admits))
	}
	return log, admits
}

// withAdmitPayload returns a copy of log whose admission record a carries
// payload instead, framed and CRC-sealed like the writer would.
func withAdmitPayload(log []byte, a loggedAdmit, payload []byte) []byte {
	out := append([]byte(nil), log[:a.off]...)
	out = appendWALRecord(out, walRecAdmit, a.seq, payload)
	return append(out, log[a.end:]...)
}

// recoverLog recovers a server from a directory holding just log.
func recoverLog(tb testing.TB, log []byte) (*Server, error) {
	tb.Helper()
	dir := tb.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walLogName), log, 0o644); err != nil {
		tb.Fatal(err)
	}
	return RecoverServer(dir, WithShards(2), withWarnf(func(string, ...any) {}))
}

// infBNAdmit is the frame-form admission payload p with its BN frame
// replaced by a raw frame holding +Inf — CRC-valid, and never something the
// live handler admits.
func infBNAdmit(tb testing.TB, p []byte) []byte {
	tb.Helper()
	a, err := parseWALAdmit(p)
	if err != nil {
		tb.Fatal(err)
	}
	_, bnFrame, err := quant.DecodeFirst(a.frames)
	if err != nil {
		tb.Fatal(err)
	}
	bn := make([]float64, 4)
	bn[2] = math.Inf(1)
	a.frames = append(a.frames[:len(a.frames)-len(bnFrame):len(a.frames)-len(bnFrame)], quant.EncodeRaw(bn)...)
	return appendWALAdmit(nil, a)
}

// FuzzWALAdmitReplay mutates one admission record's payload inside a valid
// buffered log — seeded with both records as written and with a raw BN frame
// holding +Inf — re-seals its CRC, and recovers. Recovery never panics, any
// error wraps ErrWAL, every buffered value it replays is finite, and the
// commit forced from the recovered buffer publishes a finite model. (The
// FedBuff fold of in-range updates is finite, not in range: a delta against
// an old base reaches 2·maxValue.)
func FuzzWALAdmitReplay(f *testing.F) {
	log, admits := bufferedAdmitLog(f)
	for i, a := range admits {
		f.Add(uint8(i), a.payload)
	}
	f.Add(uint8(1), infBNAdmit(f, admits[1].payload))
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		if len(payload) == 0 {
			return // not a record the framing can carry
		}
		srv, err := recoverLog(t, withAdmitPayload(log, admits[int(which)%len(admits)], payload))
		if err != nil {
			if !errors.Is(err, ErrWAL) {
				t.Fatalf("recovery error does not wrap ErrWAL: %v", err)
			}
			return
		}
		defer srv.Close()
		finite := func(what string, v []float64) {
			for i, x := range v {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("%s[%d] = %v", what, i, x)
				}
			}
		}
		for _, b := range srv.pendingBufs {
			finite("buffered params", b.params)
			finite("buffered bn", b.bn)
		}
		if srv.pendingN > 0 {
			srv.commit()
		}
		p, bn := srv.Snapshot()
		finite("committed params", p)
		finite("committed bn", bn)
	})
}
