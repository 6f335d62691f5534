package core

// moduleUpdate is one client's trained parameters for one module.
type moduleUpdate struct {
	vec    []float64
	weight float64 // qk
}

// partialAverage aggregates per-module updates (Eq. 16) and per-module aux
// updates (Eq. 17) with the given aggregator (FedAvg weighted averaging in
// the paper; pluggable through fl.Env). updates[n] collects the backbone
// updates of module n from every client k with M_k ≥ n; auxUpdates[n]
// collects aux updates from clients with M_k = n. Modules with no updates
// keep their previous global value (passed in prev).
func partialAverage(updates map[int][]moduleUpdate, prev map[int][]float64, agg func([][]float64, []float64) []float64) map[int][]float64 {
	out := make(map[int][]float64, len(prev))
	for n, v := range prev {
		ups := updates[n]
		if len(ups) == 0 {
			out[n] = v
			continue
		}
		vecs := make([][]float64, len(ups))
		ws := make([]float64, len(ups))
		for i, u := range ups {
			vecs[i] = u.vec
			ws[i] = u.weight
		}
		out[n] = agg(vecs, ws)
	}
	return out
}
