package fl

import (
	"context"
	"math/rand"
	"sync"
)

// roundSeeds draws one child seed per sampled client from the round RNG.
// Drawing all seeds up front (instead of letting clients consume the shared
// stream) is what makes parallel client execution bit-identical to
// sequential execution: the parent stream advances the same way regardless
// of worker count, and each client derives everything it randomizes —
// batch order, attack starts, sub-model picks — from its own seed.
func roundSeeds(rng *rand.Rand, n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return seeds
}

// forEachClient runs fn(slot, i, rng) for every client index i in [0, n)
// on a bounded pool of min(workers, n) goroutines. slot identifies the
// worker in [0, workers) so callers can hand each worker its own model
// replica; rng is a fresh generator seeded with seeds[i].
//
// fn must be deterministic given (i, rng) and must not depend on which slot
// or in which order it runs: results should be written into caller-owned
// storage indexed by i, and aggregated by the caller in index order after
// forEachClient returns. Under that discipline a seeded round is
// bit-identical at any worker count.
//
// When ctx is canceled, no further clients are dispatched; forEachClient
// waits for in-flight clients and returns ctx's error. The caller must then
// discard the round (some clients never ran).
func forEachClient(ctx context.Context, workers, n int, seeds []int64, fn func(slot, i int, rng *rand.Rand)) error {
	if len(seeds) != n {
		panic("fl: forEachClient needs exactly one seed per client")
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(0, i, rand.New(rand.NewSource(seeds[i])))
		}
		return nil
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := range jobs {
				fn(slot, i, rand.New(rand.NewSource(seeds[i])))
			}
		}(s)
	}
	var err error
	for i := 0; i < n; i++ {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return err
}
