package tensor

import (
	"sync"
	"testing"
)

func TestArenaReusesBuffers(t *testing.T) {
	a := NewArena()
	b1 := a.Get(64)
	b1[0] = 3.14
	a.Put(b1)
	b2 := a.Get(64)
	if &b1[0] != &b2[0] {
		t.Fatal("arena must hand back the freed buffer for a matching size")
	}
	if b3 := a.Get(64); len(b3) != 64 {
		t.Fatalf("fresh allocation has len %d, want 64", len(b3))
	}
}

func TestArenaBoundsPerSizeClass(t *testing.T) {
	a := NewArena()
	for i := 0; i < 4*arenaMaxPerSize; i++ {
		a.Put(make([]float64, 8))
	}
	a.mu.Lock()
	kept := len(a.free[8])
	a.mu.Unlock()
	if kept > arenaMaxPerSize {
		t.Fatalf("arena kept %d buffers of one size, cap is %d", kept, arenaMaxPerSize)
	}
}

func TestArenaBoundsTotalBytes(t *testing.T) {
	a := NewArena()
	// Distinct size classes each under the per-class cap: the total-bytes
	// bound must still kick in.
	n := arenaMaxBytes / 8 / 4 // four buffers of this length exceed the cap
	for i := 0; i < 8; i++ {
		a.Put(make([]float64, n+i)) // unique sizes
	}
	a.mu.Lock()
	total := a.bytes
	a.mu.Unlock()
	if total > arenaMaxBytes {
		t.Fatalf("arena retains %d bytes, cap is %d", total, arenaMaxBytes)
	}
}

func TestArenaConcurrentAccess(t *testing.T) {
	a := NewArena()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := a.Get(32)
				b[0] = float64(i)
				a.Put(b)
			}
		}()
	}
	wg.Wait()
}
