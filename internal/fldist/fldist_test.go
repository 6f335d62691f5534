package fldist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
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
		got, _, err := c.round(context.Background())
		ts.Close()
		if tc.ok {
			if err != nil || got != tc.want {
				t.Fatalf("round(%q) = %d, %v; want %d, nil", tc.body, got, err, tc.want)
			}
			continue
		}
		if err == nil {
			t.Fatalf("round(%q) = %d, want protocol error", tc.body, got)
		}
	}
}

// countingBody counts the response bytes the client actually consumed.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// countingTransport wraps every response body in a countingBody.
type countingTransport struct {
	base http.RoundTripper
	n    *atomic.Int64
}

func (c countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(r)
	if err == nil {
		resp.Body = countingBody{resp.Body, c.n}
	}
	return resp, err
}

// A broken or hostile server streaming megabytes cannot make the client —
// or an edge, which pulls and pushes through the same wire core — allocate
// without limit: the /round body, and the error text of a failed pull or
// push, are read up to a small cap and the client errors out.
func TestClientBoundsResponseBodies(t *testing.T) {
	chunk := bytes.Repeat([]byte("7"), 64<<10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/round" {
			w.WriteHeader(http.StatusInternalServerError)
		}
		for i := 0; i < 64; i++ { // 4 MiB
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer ts.Close()
	var read atomic.Int64
	hc := ts.Client()
	hc.Transport = countingTransport{base: hc.Transport, n: &read}
	c := &Client{ID: 0, BaseURL: ts.URL, HTTP: hc}
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		cap  int64
		call func() error
	}{
		{"round", maxRoundBody, func() error { _, _, err := c.round(ctx); return err }},
		{"pull error", maxErrorBody, func() error { _, err := c.pull(ctx, -1, -1); return err }},
		{"push error", maxErrorBody, func() error { _, err := c.post(ctx, "", []byte("FPU1")); return err }},
	} {
		read.Store(0)
		if err := tc.call(); err == nil {
			t.Fatalf("%s: a 4 MiB body was accepted", tc.name)
		}
		if n := read.Load(); n > tc.cap {
			t.Fatalf("%s: client read %d bytes, cap %d", tc.name, n, tc.cap)
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

	resp2, err := ts.Client().Post(ts.URL+"/update", "application/octet-stream",
		bytes.NewReader(rawBodyT(t, 0, 0, 1, []float64{1, 2}, nil)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-shape update: status %d", resp2.StatusCode)
	}

	// The wire break is a clean refusal: a body from the retired gob
	// protocol (this one is the gob encoding of an update with two params),
	// and raw FPU1 pushes carrying a NaN or the wrong number of values. So
	// are pushes outside the admission bounds, each finite but able to make
	// this quorum-of-1 commit non-finite: a subnormal weight (1/Σw is +Inf)
	// and a value that overflows once weighted.
	gobBody := []byte("I\x7f\x03\x01\x01\x06Update\x01\xff\x80\x00\x01\x05\x01\bClientID\x01\x04\x00" +
		"\x01\x05Round\x01\x04\x00\x01\x06Weight\x01\b\x00\x01\x06Params\x01\xff\x82\x00\x01\x02BN" +
		"\x01\xff\x82\x00\x00\x00\x17\xff\x81\x02\x01\x01\t[]float64\x01\xff\x82\x00\x01\b\x00\x00" +
		"\r\xff\x80\x03\xfe\xf0?\x01\x02\xfe\xf0?@\x00")
	params, bn := nn.ExportParams(m), nn.ExportBNStats(m)
	nan := append([]float64(nil), params...)
	nan[len(nan)/2] = math.NaN()
	huge := append([]float64(nil), params...)
	huge[0] = 1e300
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"gob-era body", gobBody},
		{"raw push with a NaN", rawBodyT(t, 0, 0, 1, nan, bn)},
		{"raw push of the wrong length", rawBodyT(t, 0, 0, 1, params[1:], bn)},
		{"raw push with a subnormal weight", rawBodyT(t, 0, 0, 5e-324, params, bn)},
		{"raw push beyond the value bound", rawBodyT(t, 0, 0, 1e9, huge, bn)},
	} {
		resp, err := ts.Client().Post(ts.URL+"/update", "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if srv.Round() != 0 || srv.Stats().UpdatesRaw != 0 {
		t.Fatalf("refused bodies moved the server: round %d, raw updates %d", srv.Round(), srv.Stats().UpdatesRaw)
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
	if r, _, err := c.round(ctx); err != nil || r != 0 {
		t.Fatalf("round = %d, %v; want 0, nil", r, err)
	}
	if _, err := c.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	c.TrainLocal(0.05)
	if counted, err := c.Push(ctx, 0); err != nil || !counted {
		t.Fatalf("push: counted=%v err=%v", counted, err)
	}
	if r, _, err := c.round(ctx); err != nil || r != 1 {
		t.Fatalf("round after quorum = %d, %v; want 1, nil", r, err)
	}
}

// hangUp closes the request's connection without answering — what a client
// sees from a dead process's port, or from a response lost on the way.
func hangUp(w http.ResponseWriter) {
	if conn, _, err := http.NewResponseController(w).Hijack(); err == nil {
		conn.Close()
	}
}

// A server that cannot answer yet — busy (a retry-marked 409), unavailable
// (503) or gone (a hang-up) — is not a stale round: the client re-sends the
// same request with backoff until it is answered, so every training pass
// counts and nothing is retrained. The front refuses each path (/model,
// /update, /round) for 50 ms from its first request in each server round,
// so the pull, the push and the round wait all meet it.
func TestRetryMarkedConflictKeepsTrainingPass(t *testing.T) {
	for _, tc := range []struct {
		name   string
		refuse func(w http.ResponseWriter)
	}{
		{"retry-marked 409", func(w http.ResponseWriter) {
			w.Header().Set(retryHeader, "1")
			http.Error(w, "update buffer full, retry", http.StatusConflict)
		}},
		{"503", func(w http.ResponseWriter) {
			http.Error(w, "restarting", http.StatusServiceUnavailable)
		}},
		{"hang-up", hangUp},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, subs, build := testSetup(t, 2, 1)
			m := build()
			srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 1)
			inner := srv.Handler()
			type window struct {
				path  string
				round int
			}
			var mu sync.Mutex
			busyUntil := map[window]time.Time{}
			refused := map[string]int{}
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				k := window{r.URL.Path, srv.Round()}
				if _, ok := busyUntil[k]; !ok {
					busyUntil[k] = time.Now().Add(50 * time.Millisecond)
				}
				busy := time.Now().Before(busyUntil[k])
				if busy {
					refused[r.URL.Path]++
				}
				mu.Unlock()
				if busy {
					tc.refuse(w)
					return
				}
				inner.ServeHTTP(w, r)
			}))
			defer ts.Close()
			c := &Client{
				ID: 0, BaseURL: ts.URL, HTTP: ts.Client(),
				Model: build(), Subset: subs[0], Cfg: clientCfg(),
				Rng: rand.New(rand.NewSource(3)),
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()

			if err := c.RunRounds(ctx, 2, 0.05); err != nil {
				t.Fatal(err)
			}
			if c.StaleRetrains != 0 {
				t.Fatalf("StaleRetrains = %d, want 0: a refused request threw a training pass away", c.StaleRetrains)
			}
			if got := srv.RoundsCompleted(); got != 2 {
				t.Fatalf("RoundsCompleted = %d, want 2", got)
			}
			mu.Lock()
			defer mu.Unlock()
			for _, path := range []string{"/model", "/update", "/round"} {
				if refused[path] == 0 {
					t.Fatalf("front refused no %s request (refused %v)", path, refused)
				}
			}
			if n := c.retries.Load(); n == 0 {
				t.Fatal("retry count 0 after refused requests")
			}
		})
	}
}

// A push whose response is lost is re-sent, and the server answers the
// re-send as a duplicate of the copy it already counted. That 200 completes
// the client's round: otherwise the client falls a round behind its fleet
// and trains and pushes one round more, into a quorum no other client
// fills. The front hands
// client 0's first push to the server, then hangs up without answering;
// client 1 starts once the re-send has been answered.
func TestLostPushResponseCountsRound(t *testing.T) {
	_, _, _, build := testSetup(t, 3, 3)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 2)
	inner := srv.Handler()
	var pushes atomic.Int64
	resent := make(chan struct{})
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/update" {
			inner.ServeHTTP(w, r)
			return
		}
		switch pushes.Add(1) {
		case 1:
			inner.ServeHTTP(httptest.NewRecorder(), r)
			hangUp(w)
		case 2:
			inner.ServeHTTP(w, r)
			close(resent)
		default:
			inner.ServeHTTP(w, r)
		}
	}))
	defer front.Close()
	direct := httptest.NewServer(inner)
	defer direct.Close()
	const rounds = 2
	clients := []*Client{
		mkClient(t, front, 0, 10, nil),
		mkClient(t, direct, 1, 11, nil),
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	errs := make(chan error, len(clients))
	run := func(c *Client) { errs <- c.RunRounds(ctx, rounds, 0.05) }
	go run(clients[0])
	select {
	case <-resent:
	case err := <-errs:
		t.Fatalf("client 0 stopped before re-sending its push: %v", err)
	case <-ctx.Done():
		t.Fatal("client 0 never re-sent its push")
	}
	go run(clients[1])
	for range clients {
		if err := <-errs; err != nil {
			t.Fatalf("client: %v", err)
		}
	}
	if srv.Round() != rounds {
		t.Fatalf("server at round %d, want %d", srv.Round(), rounds)
	}
	// One push per round plus the one re-send: a client that did not count
	// the duplicate 200 trains and pushes a round more, into a quorum no
	// other client fills.
	if n := pushes.Load(); n != rounds+1 {
		t.Fatalf("client 0 sent %d pushes, want %d (one per round and one re-send)", n, rounds+1)
	}
	if clients[0].retries.Load() == 0 {
		t.Fatal("client 0 counted no retry after its lost response")
	}
}
