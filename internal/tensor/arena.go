package tensor

import "sync"

// Arena is a size-keyed free list of scratch buffers. The GEMM convolution
// path allocates a fresh column-gradient buffer on every backward pass; with
// PGD-n adversarial training running n+1 forward/backward sweeps per batch,
// recycling those buffers removes the dominant per-step allocation. Buffers
// are keyed by exact length — layer geometries repeat every batch, so exact
// keying hits almost always — and each size class is capped so a burst of
// odd shapes cannot pin memory forever.
type Arena struct {
	mu    sync.Mutex
	free  map[int][][]float64
	bytes int // total retained bytes across all size classes
}

// arenaMaxPerSize bounds how many buffers of one size class an arena keeps;
// arenaMaxBytes bounds total retention across classes, so heterogeneous
// geometries (sub-model sampling, varying batch sizes) cannot grow resident
// memory without limit — buffers offered beyond the cap are simply dropped
// for the GC.
const (
	arenaMaxPerSize = 16
	arenaMaxBytes   = 64 << 20
)

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{free: make(map[int][][]float64)} }

// Scratch is the package-level arena shared by the convolution fast path and
// anything else needing short-lived float64 buffers. It is safe for
// concurrent use.
var Scratch = NewArena()

// Get returns a buffer of length n with undefined contents. Callers that
// need zeroed memory must clear it.
func (a *Arena) Get(n int) []float64 {
	a.mu.Lock()
	if bufs := a.free[n]; len(bufs) > 0 {
		b := bufs[len(bufs)-1]
		a.free[n] = bufs[:len(bufs)-1]
		a.bytes -= 8 * n
		a.mu.Unlock()
		return b
	}
	a.mu.Unlock()
	return make([]float64, n)
}

// Put returns a buffer to the arena for reuse. The caller must not touch the
// buffer afterwards. Nil and zero-length buffers are ignored.
func (a *Arena) Put(b []float64) {
	if len(b) == 0 {
		return
	}
	a.mu.Lock()
	if len(a.free[len(b)]) < arenaMaxPerSize && a.bytes+8*len(b) <= arenaMaxBytes {
		a.free[len(b)] = append(a.free[len(b)], b)
		a.bytes += 8 * len(b)
	}
	a.mu.Unlock()
}
