package fldist

import (
	"bytes"
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
