package fldist

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// A registry-mounted tenant serves exactly the routes it would serve on its
// own listener, just under its prefix — a full pull/push round trip through
// the mux must behave like talking to the server directly.
func TestRegistryRoutesTenantsWithPrefixStripped(t *testing.T) {
	init := gridVec(32, 20)
	srv := NewServer(init, nil, 1)
	reg := NewRegistry()
	if err := reg.Add("cohort-a", srv.Handler()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("echo", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, r.URL.Path)
	})); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()
	hc := ts.Client()

	round, base, _ := pullRawT(t, hc, ts.URL+"/cohort-a")
	if round != 0 {
		t.Fatalf("tenant pull round = %d", round)
	}
	params := addVecs(base, gridDelta(len(base), 0))
	if st := pushRawT(t, hc, ts.URL+"/cohort-a", 0, round, 1, params, nil); st != http.StatusOK {
		t.Fatalf("tenant push: status %d", st)
	}
	if srv.Round() != 1 {
		t.Fatalf("tenant server round = %d after push through registry", srv.Round())
	}

	// The prefix is stripped: the tenant sees /deep/path, not /echo/deep/path.
	resp, err := hc.Get(ts.URL + "/echo/deep/path")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 64)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if got := string(body[:n]); got != "/deep/path" {
		t.Fatalf("tenant saw path %q, want /deep/path", got)
	}
}

func TestRegistryListsAndRejects(t *testing.T) {
	reg := NewRegistry()
	nop := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	if err := reg.Add("", nop); err == nil {
		t.Fatal("empty tenant name accepted")
	}
	if err := reg.Add("a/b", nop); err == nil {
		t.Fatal("slashed tenant name accepted")
	}
	for _, name := range []string{"beta", "alpha"} {
		if err := reg.Add(name, nop); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	var listing map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := listing["tenants"]; len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("tenant listing = %v", got)
	}

	resp, err = http.Get(ts.URL + "/nope/model")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d, want 404", resp.StatusCode)
	}
}
