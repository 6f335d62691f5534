package fldist

// Registry is the multi-tenant mux of the tier: several named aggregators —
// root Servers, Edges, anything exposing an http.Handler — mounted behind
// one listener, each under its own path prefix. cmd/fldist -edge uses it to
// host one edge per cohort on a single port.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// Registry routes /<name>/<path> to the tenant registered under name, with
// the prefix stripped — a tenant mounted as "cohort-a" serves exactly the
// routes it would serve at the root of its own listener, so clients just
// append the tenant prefix to their base URL. GET / lists the tenant names
// as JSON. Safe for concurrent use; tenants may be added while serving.
type Registry struct {
	mu      sync.RWMutex
	tenants map[string]http.Handler
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{tenants: map[string]http.Handler{}}
}

// Add mounts h under name. Names must be non-empty and slash-free (they are
// one path segment); re-adding a name replaces the previous tenant.
func (reg *Registry) Add(name string, h http.Handler) error {
	if name == "" || strings.Contains(name, "/") {
		return fmt.Errorf("fldist: registry name %q must be one non-empty path segment", name)
	}
	reg.mu.Lock()
	reg.tenants[name] = h
	reg.mu.Unlock()
	return nil
}

// Get returns the named tenant's handler, or nil.
func (reg *Registry) Get(name string) http.Handler {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	return reg.tenants[name]
}

// Names returns the mounted tenant names, sorted.
func (reg *Registry) Names() []string {
	reg.mu.RLock()
	names := make([]string, 0, len(reg.tenants))
	for n := range reg.tenants {
		names = append(names, n)
	}
	reg.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Handler returns the registry's router.
func (reg *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trimmed := strings.TrimPrefix(r.URL.Path, "/")
		name, rest, _ := strings.Cut(trimmed, "/")
		if name == "" {
			if r.Method != http.MethodGet {
				http.Error(w, "GET only", http.StatusMethodNotAllowed)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string][]string{"tenants": reg.Names()})
			return
		}
		h := reg.Get(name)
		if h == nil {
			http.Error(w, fmt.Sprintf("fldist: no tenant %q", name), http.StatusNotFound)
			return
		}
		// Shallow-clone the request with the tenant prefix stripped so the
		// tenant sees the same paths it would on its own listener.
		r2 := new(http.Request)
		*r2 = *r
		u2 := *r.URL
		u2.Path = "/" + rest
		r2.URL = &u2
		h.ServeHTTP(w, r2)
	})
}
