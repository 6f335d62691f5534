package fldist

import (
	"bytes"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
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
			NewServer(initP, initBN, 1, withSegments(2)),
			NewServer(initP, initBN, 1, withSegments(2), WithBufferedAggregation(1, 1)),
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

// loggedRecord is one record inside a finished log: its type, its byte
// span, its sequence number and its payload.
type loggedRecord struct {
	typ      byte
	off, end int
	seq      uint64
	payload  []byte
}

// recordsOf returns the records of type typ in a finished log — its
// segments concatenated in round order — in log order.
func recordsOf(tb testing.TB, log []byte, typ byte) []loggedRecord {
	tb.Helper()
	var recs []loggedRecord
	for off := 0; off < len(log); {
		t, seq, payload, n, err := parseWALRecord(log[off:])
		if err != nil {
			tb.Fatal(err)
		}
		if t == typ {
			recs = append(recs, loggedRecord{typ: t, off: off, end: off + n, seq: seq, payload: payload})
		}
		off += n
	}
	return recs
}

// readLog closes srv and returns its log: its segments, concatenated in
// round order from round 0 — the logs built here never outgrow the window
// Close keeps.
func readLog(tb testing.TB, srv *Server) []byte {
	tb.Helper()
	if err := srv.Close(); err != nil {
		tb.Fatal(err)
	}
	if rounds, err := walSegments(srv.wal.dir); err != nil || len(rounds) == 0 || rounds[0] != 0 {
		tb.Fatalf("log segments %v (%v), want them all from round 0", rounds, err)
	}
	return readWALDir(tb, srv.wal.dir)
}

// testDelta is a small deterministic parameter and BN delta.
func testDelta(nP, nBN int) (d, dBN []float64) {
	d, dBN = make([]float64, nP), make([]float64, nBN)
	for i := range d {
		d[i] = 1e-2 * float64(i%7-3)
	}
	for i := range dBN {
		dBN[i] = 1e-3 * float64(i+1)
	}
	return d, dBN
}

// admitLog writes a WAL through the live push handler — buffered (K = 4,
// window 2) or a synchronous quorum of 4 — holding the initial commit and
// three admissions left uncommitted: a raw push, a dense 8-bit push with a
// raw BN frame, and a dense push from a delta-downlink client, whose record
// carries its chain base. It returns the log's bytes and those three
// records, in log order.
func admitLog(tb testing.TB, buffered bool) ([]byte, []loggedRecord) {
	tb.Helper()
	const nP, nBN = 96, 4
	initP, initBN := synthVec(nP, 1), synthVec(nBN, 2)
	opts := []ServerOption{withSegments(2), WithWAL(tb.TempDir()), withWarnf(func(string, ...any) {})}
	quorum := 4
	if buffered {
		opts, quorum = append(opts, WithBufferedAggregation(4, 2)), 1
	}
	srv := NewServer(initP, initBN, quorum, opts...)
	d, dBN := testDelta(nP, nBN)
	dense, err := encodeUpdateEnvelope(1, 0, 2, quant.Encode(quant.QuantizeChunks(d, 8, 64)), quant.EncodeRaw(dBN))
	if err != nil {
		tb.Fatal(err)
	}
	postOK(tb, srv, rawBodyT(tb, 0, 0, 3, perturb(initP, 0, 0), perturb(initBN, 0, 0)), "")
	postOK(tb, srv, dense, "")
	// The delta client's cold pull seeds its codec's chain; its push then
	// decodes against the chain entry of round 0.
	chain := codecValue(Compression{Bits: 8, Chunk: 64, Delta: true})
	pull := httptest.NewRequest(http.MethodGet, "/model", nil)
	pull.Header.Set(codecHeader, chain)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, pull)
	if rec.Code != http.StatusOK {
		tb.Fatalf("delta pull: status %d: %s", rec.Code, rec.Body)
	}
	chainPush, err := encodeUpdateEnvelope(2, 0, 1, quant.Encode(quant.QuantizeChunks(d, 8, 64)), quant.EncodeRaw(dBN))
	if err != nil {
		tb.Fatal(err)
	}
	postOK(tb, srv, chainPush, chain)
	log := readLog(tb, srv)
	admits := recordsOf(tb, log, walRecAdmit)
	if len(admits) != 3 {
		tb.Fatalf("log holds %d admission records, want 3", len(admits))
	}
	return log, admits
}

// postOK runs one push through srv's handler, declaring codec when it is
// not empty, and requires a 200.
func postOK(tb testing.TB, srv *Server, body []byte, codec string) {
	tb.Helper()
	req := httptest.NewRequest(http.MethodPost, "/update", bytes.NewReader(body))
	if codec != "" {
		req.Header.Set(codecHeader, codec)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("push: status %d: %s", rec.Code, rec.Body)
	}
}

// withPayload returns a copy of log whose record r carries payload instead,
// framed and CRC-sealed like the writer would.
func withPayload(log []byte, r loggedRecord, payload []byte) []byte {
	out := append([]byte(nil), log[:r.off]...)
	out = appendWALRecord(out, r.typ, r.seq, payload)
	return append(out, log[r.end:]...)
}

// retainedCommitLog writes a buffered WAL (K = 2, window 2) through the live
// server whose last record is an uncommitted dense 8-bit push against round
// 1 — retained, not the newest commit — whose commit record carries the
// residual of the variant built in round 0. It returns the log and round 1's
// commit record.
func retainedCommitLog(tb testing.TB) ([]byte, loggedRecord) {
	tb.Helper()
	const nP, nBN = 96, 4
	initP, initBN := synthVec(nP, 1), synthVec(nBN, 2)
	srv := NewServer(initP, initBN, 1, withSegments(2), WithBufferedAggregation(2, 2), WithWAL(tb.TempDir()),
		withWarnf(func(string, ...any) {}))
	for r := 0; r < 2; r++ {
		if _, err := srv.getServed(Compression{Bits: 8, Chunk: 64}, -1); err != nil {
			tb.Fatal(err)
		}
		for id := 0; id < 2; id++ {
			postOK(tb, srv, rawBodyT(tb, id, r, 1, perturb(initP, id, r), perturb(initBN, id, r)), "")
		}
	}
	d, dBN := testDelta(nP, nBN)
	dense, err := encodeUpdateEnvelope(2, 1, 2, quant.Encode(quant.QuantizeChunks(d, 8, 64)), quant.EncodeRaw(dBN))
	if err != nil {
		tb.Fatal(err)
	}
	postOK(tb, srv, dense, "")
	log := readLog(tb, srv)
	commits := recordsOf(tb, log, walRecCommit)
	if len(commits) != 3 {
		tb.Fatalf("log holds %d commit records, want 3", len(commits))
	}
	return log, commits[1]
}

// misshapenCommits are retained-commit shapes recovery must refuse: one
// value short in params, in BN and in a variant residual.
var misshapenCommits = []struct {
	name   string
	mutate func(c *walCommit)
}{
	{"short params", func(c *walCommit) { c.params = c.params[:len(c.params)-1] }},
	{"short bn", func(c *walCommit) { c.bn = c.bn[:len(c.bn)-1] }},
	{"short residual", func(c *walCommit) { v := &c.downErr[0]; v.residual = v.residual[:len(v.residual)-1] }},
}

// mutatedCommit returns the commit payload p parsed, changed by mutate and
// re-encoded.
func mutatedCommit(tb testing.TB, p []byte, mutate func(c *walCommit)) []byte {
	tb.Helper()
	c, err := parseWALCommit(p)
	if err != nil {
		tb.Fatal(err)
	}
	mutate(&c)
	return appendWALCommit(nil, c)
}

// recoverLog recovers a server from a directory holding just log's
// segments.
func recoverLog(tb testing.TB, log []byte) (*Server, error) {
	tb.Helper()
	dir := tb.TempDir()
	writeLogDir(tb, dir, log, int64(len(log)))
	srv, err := RecoverServer(dir)
	if err == nil {
		srv.segs, srv.warnf = 2, func(string, ...any) {}
	}
	return srv, err
}

// mutatedAdmit returns the admission payload p parsed, changed by mutate and
// re-encoded.
func mutatedAdmit(tb testing.TB, p []byte, mutate func(a *walAdmit)) []byte {
	tb.Helper()
	a, err := parseWALAdmit(p)
	if err != nil {
		tb.Fatal(err)
	}
	mutate(a)
	return appendWALAdmit(nil, a)
}

// infBNAdmit is the admission payload p with its BN frame replaced by a raw
// frame holding +Inf — CRC-valid, and never something the live handler
// admits.
func infBNAdmit(tb testing.TB, p []byte) []byte {
	tb.Helper()
	return mutatedAdmit(tb, p, func(a *walAdmit) {
		_, bnFrame, err := quant.DecodeFirst(a.body[updateHeaderLen:])
		if err != nil {
			tb.Fatal(err)
		}
		bn := make([]float64, 4)
		bn[2] = math.Inf(1)
		a.body = append(a.body[:len(a.body)-len(bnFrame):len(a.body)-len(bnFrame)], quant.EncodeRaw(bn)...)
	})
}

// FuzzWALAdmitReplay mutates one admission record's payload — the logged
// push body, header included, and a chain admission's base — inside a valid
// log — a buffered and a synchronous one, each holding a raw, a dense and a
// chain admission, seeded with every record as written and with a raw BN
// frame holding +Inf — re-seals its CRC, and recovers. Recovery never
// panics, any error wraps ErrWAL, every buffered value it replays is finite,
// and the commit forced from the recovered buffer publishes a finite model.
// (The FedBuff fold of in-range updates is finite, not in range: a delta
// against an old base reaches 2·maxValue.)
func FuzzWALAdmitReplay(f *testing.F) {
	type target struct {
		log   []byte
		admit loggedRecord
	}
	var targets []target
	for _, buffered := range []bool{true, false} {
		log, admits := admitLog(f, buffered)
		for _, a := range admits {
			targets = append(targets, target{log, a})
		}
	}
	for i, tg := range targets {
		f.Add(uint8(i), tg.admit.payload)
	}
	f.Add(uint8(1), infBNAdmit(f, targets[1].admit.payload))
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		if len(payload) == 0 {
			return // not a record the framing can carry
		}
		tg := targets[int(which)%len(targets)]
		srv, err := recoverLog(t, withPayload(tg.log, tg.admit, payload))
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
		for _, c := range srv.pending {
			finite("buffered params", c.buf.params)
			finite("buffered bn", c.buf.bn)
		}
		if len(srv.pending) > 0 {
			srv.commit()
		}
		p, bn := srv.Snapshot()
		finite("committed params", p)
		finite("committed bn", bn)
	})
}

// FuzzWALCommitReplay mutates the commit record of the retained round an
// uncommitted compressed admission decodes against — seeded with the record
// as written and with each misshapen commit — re-seals its CRC, and
// recovers. Recovery never panics, any error wraps ErrWAL, every buffered
// value it replays is finite, and so is the model a commit of the recovered
// buffer publishes.
func FuzzWALCommitReplay(f *testing.F) {
	log, commit := retainedCommitLog(f)
	f.Add(commit.payload)
	for _, m := range misshapenCommits {
		f.Add(mutatedCommit(f, commit.payload, m.mutate))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) == 0 {
			return // not a record the framing can carry
		}
		srv, err := recoverLog(t, withPayload(log, commit, payload))
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
		for _, c := range srv.pending {
			finite("buffered params", c.buf.params)
			finite("buffered bn", c.buf.bn)
		}
		if len(srv.pending) > 0 {
			srv.commit()
		}
		p, bn := srv.Snapshot()
		finite("committed params", p)
		finite("committed bn", bn)
	})
}
