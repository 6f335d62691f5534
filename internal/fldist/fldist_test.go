package fldist

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"fedprophet/internal/attack"
	"fedprophet/internal/data"
	"fedprophet/internal/fl"
	"fedprophet/internal/nn"
)

func testSetup(t *testing.T, clients int, seed int64) (*data.Dataset, *data.Dataset, []*data.Subset, func() *nn.Model) {
	t.Helper()
	cfg := data.SyntheticConfig{
		Name: "dist", Classes: 3, Shape: []int{2, 8, 8},
		TrainPerClass: 30, TestPerClass: 10,
		NoiseStd: 0.08, MixMax: 0.2, Seed: seed,
	}
	train, test := data.Generate(cfg)
	subs := data.PartitionNonIID(train, data.DefaultPartition(clients, seed))
	build := func() *nn.Model {
		return nn.CNN3([]int{2, 8, 8}, 3, 4, rand.New(rand.NewSource(seed)))
	}
	return train, test, subs, build
}

func clientCfg() fl.Config {
	cfg := fl.DefaultConfig()
	cfg.LocalIters = 6
	cfg.Batch = 8
	cfg.Momentum = 0.9
	cfg.WeightDecay = 1e-4
	return cfg
}

func TestServerModelRoundTrip(t *testing.T) {
	_, _, subs, build := testSetup(t, 2, 1)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := &Client{
		ID: 0, BaseURL: ts.URL, HTTP: ts.Client(),
		Model: build(), Subset: subs[0], Cfg: clientCfg(),
		Rng: rand.New(rand.NewSource(2)),
	}
	round, err := c.Pull(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if round != 0 {
		t.Fatalf("round = %d, want 0", round)
	}
	a := nn.ExportParams(m)
	b := nn.ExportParams(c.Model)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pulled model differs from the server's global")
		}
	}
}

func TestPushAggregatesAndAdvancesRound(t *testing.T) {
	_, _, subs, build := testSetup(t, 2, 3)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mk := func(id int) *Client {
		return &Client{
			ID: id, BaseURL: ts.URL, HTTP: ts.Client(),
			Model: build(), Subset: subs[id], Cfg: clientCfg(),
			Rng: rand.New(rand.NewSource(int64(10 + id))),
		}
	}
	c0, c1 := mk(0), mk(1)
	for _, c := range []*Client{c0, c1} {
		if _, err := c.Pull(context.Background()); err != nil {
			t.Fatal(err)
		}
		c.TrainLocal(0.05)
	}
	if counted, err := c0.Push(context.Background(), 0); err != nil || !counted {
		t.Fatalf("push: counted=%v err=%v", counted, err)
	}
	if srv.Round() != 0 {
		t.Fatal("round must not advance before quorum")
	}
	if counted, err := c1.Push(context.Background(), 0); err != nil || !counted {
		t.Fatalf("push: counted=%v err=%v", counted, err)
	}
	if srv.Round() != 1 {
		t.Fatalf("round = %d after quorum, want 1", srv.Round())
	}
	// The aggregate must be the weighted mean of the two uploads.
	p0 := nn.ExportParams(c0.Model)
	p1 := nn.ExportParams(c1.Model)
	w0, w1 := float64(subs[0].Len()), float64(subs[1].Len())
	got, _ := srv.Snapshot()
	for i := range got {
		want := (w0*p0[i] + w1*p1[i]) / (w0 + w1)
		if diff := got[i] - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("aggregate[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestStaleRoundRejected(t *testing.T) {
	_, _, subs, build := testSetup(t, 3, 5)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mk := func(id int) *Client {
		return &Client{
			ID: id, BaseURL: ts.URL, HTTP: ts.Client(),
			Model: build(), Subset: subs[id], Cfg: clientCfg(),
			Rng: rand.New(rand.NewSource(int64(20 + id))),
		}
	}
	fast, slow := mk(0), mk(1)
	if _, err := slow.Pull(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Fast client completes round 0 (quorum 1 → aggregation).
	if _, err := fast.Pull(context.Background()); err != nil {
		t.Fatal(err)
	}
	fast.TrainLocal(0.05)
	if _, err := fast.Push(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	// Slow client now pushes for round 0 and must be told it is stale. The
	// sentinel contract is errors.Is, never ==: Push is free to wrap it.
	slow.TrainLocal(0.05)
	if _, err := slow.Push(context.Background(), 0); !errors.Is(err, ErrStaleRound) {
		t.Fatalf("want ErrStaleRound, got %v", err)
	}
}

// The /round body must be a bare ASCII decimal: a trailing-garbage body that
// fmt.Sscanf("%d") would have silently accepted (e.g. "3 oops" → 3) is a
// protocol error, as is anything non-numeric or negative.
func TestRoundParsingRejectsGarbage(t *testing.T) {
	cases := []struct {
		body string
		want int
		ok   bool
	}{
		{"3", 3, true},
		{" 7\n", 7, true}, // surrounding whitespace is tolerated
		{"0", 0, true},
		{"3 oops", 0, false},
		{"3.5", 0, false},
		{"", 0, false},
		{"-1", 0, false},
		{"0x10", 0, false},
	}
	for _, tc := range cases {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, tc.body)
		}))
		c := &Client{ID: 0, BaseURL: ts.URL, HTTP: ts.Client()}
		got, err := c.Round(context.Background())
		ts.Close()
		if tc.ok {
			if err != nil || got != tc.want {
				t.Fatalf("Round(%q) = %d, %v; want %d, nil", tc.body, got, err, tc.want)
			}
			continue
		}
		if err == nil {
			t.Fatalf("Round(%q) = %d, want protocol error", tc.body, got)
		}
	}
}

func TestMalformedAndWrongShapeUpdates(t *testing.T) {
	_, _, _, build := testSetup(t, 2, 7)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/update", "application/octet-stream",
		bytes.NewReader([]byte("garbage")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage update: status %d", resp.StatusCode)
	}

	var buf bytes.Buffer
	_ = gob.NewEncoder(&buf).Encode(Update{Round: 0, Weight: 1, Params: []float64{1, 2}})
	resp2, err := ts.Client().Post(ts.URL+"/update", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-shape update: status %d", resp2.StatusCode)
	}
}

// End-to-end: concurrent clients federate over real HTTP and the global
// model learns the task.
func TestDistributedFederationLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed integration test")
	}
	const clients = 3
	const rounds = 6
	train, test, subs, build := testSetup(t, clients, 9)
	_ = train
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
				Rng: rand.New(rand.NewSource(int64(100 + id))),
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
	if srv.RoundsCompleted() < rounds {
		t.Fatalf("server completed %d rounds, want ≥ %d", srv.RoundsCompleted(), rounds)
	}

	params, bn := srv.Snapshot()
	final := build()
	nn.ImportParams(final, params)
	nn.ImportBNStats(final, bn)
	acc := attack.CleanAccuracy(final, test, 16)
	if acc <= 0.5 {
		t.Fatalf("distributed federation failed to learn: accuracy %v", acc)
	}
}

// A client that retries its push after a lost/slow 200 must not be
// double-counted in the round's FedAvg weights.
func TestDuplicateUpdateNotDoubleCounted(t *testing.T) {
	_, _, subs, build := testSetup(t, 2, 13)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mk := func(id int) *Client {
		return &Client{
			ID: id, BaseURL: ts.URL, HTTP: ts.Client(),
			Model: build(), Subset: subs[id], Cfg: clientCfg(),
			Rng: rand.New(rand.NewSource(int64(40 + id))),
		}
	}
	ctx := context.Background()
	c0, c1 := mk(0), mk(1)
	for _, c := range []*Client{c0, c1} {
		if _, err := c.Pull(ctx); err != nil {
			t.Fatal(err)
		}
		c.TrainLocal(0.05)
	}
	// Client 0 pushes, then retries the same round (simulating a lost 200).
	if counted, err := c0.Push(ctx, 0); err != nil || !counted {
		t.Fatalf("first push: counted=%v err=%v", counted, err)
	}
	counted, err := c0.Push(ctx, 0)
	if err != nil {
		t.Fatalf("duplicate push must be acknowledged idempotently, got %v", err)
	}
	if counted {
		t.Fatal("duplicate push must report counted=false so the client does not mistake it for progress")
	}
	if srv.Round() != 0 {
		t.Fatal("duplicate must not count toward the quorum")
	}
	if got := srv.Stats().DuplicatesDropped; got != 1 {
		t.Fatalf("DuplicatesDropped = %d, want 1", got)
	}
	if counted, err := c1.Push(ctx, 0); err != nil || !counted {
		t.Fatalf("push: counted=%v err=%v", counted, err)
	}
	if srv.Round() != 1 {
		t.Fatalf("round = %d after both distinct clients pushed, want 1", srv.Round())
	}
	// The aggregate must weight each client exactly once.
	p0, p1 := nn.ExportParams(c0.Model), nn.ExportParams(c1.Model)
	w0, w1 := float64(subs[0].Len()), float64(subs[1].Len())
	got, _ := srv.Snapshot()
	for i := range got {
		want := (w0*p0[i] + w1*p1[i]) / (w0 + w1)
		if diff := got[i] - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("aggregate[%d] = %v, want single-counted %v", i, got[i], want)
		}
	}
}

// Serve must run until canceled, then shut down gracefully.
func TestServerGracefulShutdown(t *testing.T) {
	_, _, _, build := testSetup(t, 2, 17)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 1)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()

	// Wait until the server answers, then cancel and expect a clean exit.
	c := &Client{ID: 0, BaseURL: "http://" + ln.Addr().String(), HTTP: &http.Client{}, Model: build()}
	var pullErr error
	for i := 0; i < 50; i++ {
		if _, pullErr = c.Pull(ctx); pullErr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if pullErr != nil {
		t.Fatalf("server never came up: %v", pullErr)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down after cancel")
	}
}

// The lightweight round endpoint must track aggregations without shipping
// the model blob.
func TestRoundEndpoint(t *testing.T) {
	_, _, subs, build := testSetup(t, 2, 19)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := &Client{
		ID: 0, BaseURL: ts.URL, HTTP: ts.Client(),
		Model: build(), Subset: subs[0], Cfg: clientCfg(),
		Rng: rand.New(rand.NewSource(60)),
	}
	ctx := context.Background()
	if r, err := c.Round(ctx); err != nil || r != 0 {
		t.Fatalf("Round = %d, %v; want 0, nil", r, err)
	}
	if _, err := c.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	c.TrainLocal(0.05)
	if counted, err := c.Push(ctx, 0); err != nil || !counted {
		t.Fatalf("push: counted=%v err=%v", counted, err)
	}
	if r, err := c.Round(ctx); err != nil || r != 1 {
		t.Fatalf("Round after quorum = %d, %v; want 1, nil", r, err)
	}
}
