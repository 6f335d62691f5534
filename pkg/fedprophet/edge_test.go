package fedprophet

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fedprophet/internal/quant"
)

// RawUpdateBody frames a raw push for POST /update (docs/WIRE.md, "Update
// envelope"): the FPU1 header, then the parameter and BN vectors as raw FPQ1
// frames. Exported from this test file so the external tests share it.
func RawUpdateBody(id, round int, weight float64, params, bn []float64) []byte {
	b := []byte("FPU1\x01")
	b = binary.LittleEndian.AppendUint32(b, uint32(id))
	b = binary.LittleEndian.AppendUint32(b, uint32(round))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(weight))
	b = quant.AppendRaw(b, params)
	return quant.AppendRaw(b, bn)
}

// The public hierarchical surface end-to-end: a root ParamServer, an
// EdgeAggregator in front of it mounted under a tenant path of an
// http.ServeMux, and cohort clients pulling and pushing through that path.
// The cohort's updates must reach the root as one combined tier push.
func TestEdgeAggregatorPublicSurface(t *testing.T) {
	init := make([]float64, 64)
	for i := range init {
		init[i] = float64(i) / 128
	}
	root := NewParamServer(init, nil, 1)
	rts := httptest.NewServer(root.Handler())
	defer rts.Close()

	edge := NewEdgeAggregator(rts.URL,
		WithEdgeTier("plant-7"),
		WithEdgeFlush(2, 0),
		WithEdgeStalenessWindow(4),
		WithEdgeUpstreamID(4096))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := edge.Start(ctx); err != nil {
		t.Fatalf("edge start: %v", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/plant-7/", http.StripPrefix("/plant-7", edge.Handler()))
	ets := httptest.NewServer(mux)
	defer ets.Close()

	resp, err := http.Get(ets.URL + "/plant-7/model")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || edge.Stats().Upstream.CohortPulls != 1 {
		t.Fatalf("cohort pull via tenant path: status %d, edge counted %d pulls",
			resp.StatusCode, edge.Stats().Upstream.CohortPulls)
	}

	for id := 0; id < 2; id++ {
		params := make([]float64, len(init))
		for i := range params {
			params[i] = init[i] + float64(id+1)/256
		}
		resp, err := http.Post(ets.URL+"/plant-7/update", "application/x-fldist-delta",
			bytes.NewReader(RawUpdateBody(id, 0, 1, params, nil)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cohort push via tenant path: status %d", resp.StatusCode)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for root.Round() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("tier push never reached the root")
		}
		time.Sleep(time.Millisecond)
	}
	gotP, _ := root.Snapshot()
	for i := range gotP {
		// Both cohort deltas are powers of two on top of a small dyadic
		// base, so the tiered average is exact: init + (1/256 + 2/256)/2.
		want := init[i] + 3.0/512
		if gotP[i] != want {
			t.Fatalf("root params[%d] = %v, want %v", i, gotP[i], want)
		}
	}
	// The root commits before the edge's push response returns, so the push
	// counter can trail the committed round briefly.
	for edge.Stats().Upstream.Pushes != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("edge upstream stats: %+v", edge.Stats().Upstream)
		}
		time.Sleep(time.Millisecond)
	}
	if up := edge.Stats().Upstream; up.Cohort != "plant-7" || up.FlushK != 1 {
		t.Fatalf("edge upstream stats: %+v", up)
	}
}
