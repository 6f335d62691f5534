// Fixture for the determinism analyzer.
//
//lint:deterministic
package determinism

import (
	"math/rand"
	"os"
	"sort"
	"time"
)

func clockBad() int64 {
	return time.Now().Unix() // want `time.Now in a deterministic package`
}

func sinceBad(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time.Since in a deterministic package`
}

func globalRandBad() int {
	return rand.Intn(10) // want `global rand.Intn in a deterministic package`
}

func envBad() string {
	return os.Getenv("BACKEND") // want `os.Getenv in a deterministic package`
}

func seededRandOK() int {
	r := rand.New(rand.NewSource(42))
	return r.Intn(10)
}

func jitterIgnored() int {
	//lint:ignore determinism jitter paces retries only and never reaches replayed state
	return rand.Intn(5)
}

func floatFoldBad(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `map-range fold: sum accumulates across a randomized iteration order`
	}
	return sum
}

func appendBad(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `keys is appended to in randomized iteration order`
	}
	return keys
}

func appendThenSortOK(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func intCountOK(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

func distinctKeyWritesOK(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v * 2
	}
	return out
}
