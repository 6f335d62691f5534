package data

import (
	"math"
	"math/rand"
	"sort"
)

// PartitionConfig describes the statistical heterogeneity of the federated
// split. The paper (§7.1, following Shah et al. 2021) uses MajorityFrac=0.8
// and ClassFrac=0.2: on each client 80% of the data comes from ~20% of the
// classes.
type PartitionConfig struct {
	NumClients   int
	MajorityFrac float64 // fraction of a client's data from its majority classes
	ClassFrac    float64 // fraction of all classes that are majority for a client
	Seed         int64
}

// DefaultPartition returns the paper's 80/20 configuration for n clients.
func DefaultPartition(n int, seed int64) PartitionConfig {
	return PartitionConfig{NumClients: n, MajorityFrac: 0.8, ClassFrac: 0.2, Seed: seed}
}

// PartitionNonIID splits ds into per-client subsets. Every sample is assigned
// to exactly one client. Each client receives ≈|D|/N samples, of which
// ≈MajorityFrac come from its own randomly chosen majority classes
// (⌈ClassFrac·K⌉ of them) as long as those class pools last, and the rest
// from the global remainder.
func PartitionNonIID(ds *Dataset, cfg PartitionConfig) []*Subset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.NumClients
	if n <= 0 {
		panic("data: NumClients must be positive")
	}
	k := ds.NumClasses
	numMajor := int(math.Ceil(cfg.ClassFrac * float64(k)))
	if numMajor < 1 {
		numMajor = 1
	}

	// Shuffled per-class index pools.
	pools := make([][]int, k)
	for i, y := range ds.Y {
		pools[y] = append(pools[y], i)
	}
	for c := range pools {
		rng.Shuffle(len(pools[c]), func(i, j int) {
			pools[c][i], pools[c][j] = pools[c][j], pools[c][i]
		})
	}

	// Choose majority classes per client.
	majors := make([][]int, n)
	perm := rng.Perm(k)
	pi := 0
	for c := 0; c < n; c++ {
		m := make([]int, 0, numMajor)
		for len(m) < numMajor {
			if pi == len(perm) {
				perm = rng.Perm(k)
				pi = 0
			}
			m = append(m, perm[pi])
			pi++
		}
		majors[c] = m
	}

	quota := ds.Len() / n
	majorQuota := int(math.Round(cfg.MajorityFrac * float64(quota)))
	subsets := make([]*Subset, n)
	for c := range subsets {
		subsets[c] = &Subset{Parent: ds}
	}

	// Pass 1: majority classes.
	for c := 0; c < n; c++ {
		need := majorQuota
		per := (need + len(majors[c]) - 1) / len(majors[c])
		for _, cls := range majors[c] {
			take := per
			if take > need {
				take = need
			}
			if take > len(pools[cls]) {
				take = len(pools[cls])
			}
			subsets[c].Indices = append(subsets[c].Indices, pools[cls][:take]...)
			pools[cls] = pools[cls][take:]
			need -= take
		}
	}

	// Pass 2: fill each client to its quota from the global remainder.
	var rest []int
	for c := 0; c < k; c++ {
		rest = append(rest, pools[c]...)
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	ri := 0
	for c := 0; c < n; c++ {
		for len(subsets[c].Indices) < quota && ri < len(rest) {
			subsets[c].Indices = append(subsets[c].Indices, rest[ri])
			ri++
		}
	}
	// Distribute any leftovers round-robin so no sample is dropped.
	for c := 0; ri < len(rest); c = (c + 1) % n {
		subsets[c].Indices = append(subsets[c].Indices, rest[ri])
		ri++
	}
	for c := range subsets {
		sort.Ints(subsets[c].Indices)
	}
	return subsets
}

// SplitHoldout removes a fraction of ds into a held-out set (used as the
// server validation set for APA and the public distillation set for the KD
// baselines). Returns (remaining, holdout).
func SplitHoldout(ds *Dataset, frac float64, seed int64) (*Dataset, *Dataset) {
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(ds.Len())
	nh := int(float64(ds.Len()) * frac)
	hold := &Dataset{Name: ds.Name + "-holdout", InShape: ds.InShape, NumClasses: ds.NumClasses}
	rem := &Dataset{Name: ds.Name, InShape: ds.InShape, NumClasses: ds.NumClasses}
	for i, id := range idx {
		if i < nh {
			hold.X = append(hold.X, ds.X[id])
			hold.Y = append(hold.Y, ds.Y[id])
		} else {
			rem.X = append(rem.X, ds.X[id])
			rem.Y = append(rem.Y, ds.Y[id])
		}
	}
	return rem, hold
}
