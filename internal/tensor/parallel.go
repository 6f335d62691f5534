package tensor

import (
	"runtime"
	"sync"
)

// The package worker pool. Workers are started lazily on the first parallel
// call and sized to GOMAXPROCS at that moment; they live for the process
// lifetime. The job channel is deliberately unbuffered: a submission only
// succeeds by synchronous handoff to a worker that is parked waiting for
// work, and otherwise runs inline on the submitting goroutine. That makes
// nested ParallelFor calls deadlock-free — no job can ever sit queued while
// its submitter blocks in Wait, because there is no queue.
var (
	poolOnce sync.Once
	poolJobs chan func()
)

func startPool() {
	n := runtime.GOMAXPROCS(0) - 1
	if n < 1 {
		return
	}
	poolJobs = make(chan func())
	for i := 0; i < n; i++ {
		go func() {
			for job := range poolJobs {
				job()
			}
		}()
	}
}

// ParallelFor splits [0, n) into at most GOMAXPROCS contiguous chunks and
// runs f(lo, hi) on each, blocking until all chunks complete. The chunk
// boundaries depend only on n and GOMAXPROCS — never on scheduling — so any
// computation whose chunks write disjoint state is bit-deterministic at every
// worker count. With a single CPU (or n ≤ 1) it degenerates to an inline call
// with zero goroutine overhead.
func ParallelFor(n int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w <= 1 {
		f(0, n)
		return
	}
	poolOnce.Do(startPool)
	if poolJobs == nil {
		f(0, n)
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		lo, hi := lo, hi
		wg.Add(1)
		job := func() {
			defer wg.Done()
			f(lo, hi)
		}
		select {
		case poolJobs <- job:
		default:
			job()
		}
	}
	wg.Wait()
}

// parFLOPs is the approximate multiply-add count below which handing work to
// the pool costs more than it saves: about 25 µs of the vector GEMM tile, the
// order of one worker wake-up and the wait for it.
const parFLOPs = 1 << 18

// ParallelForWork is ParallelFor for a job of about work multiply-adds in
// total: below parFLOPs the whole range runs inline as f(0, n), so
// microsecond jobs never pay for a worker wake-up. Whether it splits depends
// only on work, and how it splits only on (n, GOMAXPROCS).
func ParallelForWork(n, work int, f func(lo, hi int)) {
	if n > 0 && work < parFLOPs {
		f(0, n)
		return
	}
	ParallelFor(n, f)
}
