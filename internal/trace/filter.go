package trace

// GroupByEpoch buckets states by epoch.
func GroupByEpoch(states []StateVector) map[int][]StateVector {
	out := make(map[int][]StateVector)
	for _, s := range states {
		out[s.Epoch] = append(out[s.Epoch], s)
	}
	return out
}
