package trace

// SelectKth rearranges v so that v[k] is the element sort.Float64s would
// leave there — NaN before everything, then < — with nothing that sorts
// after it before it, and returns it. An order statistic belongs to the
// multiset, so neither the order of v nor the pivots can change the result;
// the one exception is removed by the last line: -0 and +0 tie under <, which
// of them a sort leaves at k is an accident of its swaps, so a zero is +0.
// Expected O(len(v)): three-way partitions (most metric deltas are mostly 0)
// around the median of three elements an LCG draws, so that no pattern in
// the data — sorted, periodic, organ-pipe — makes it quadratic.
func SelectKth(v []float64, k int) float64 {
	lo, hi := 0, len(v) // v[:lo] sorts at or before v[lo:hi], v[hi:] at or after
	for i, x := range v {
		if x != x {
			v[i], v[lo] = v[lo], x
			lo++
		}
	}
	rnd := uint64(len(v))
	for k >= lo && hi-lo > 1 {
		var s [3]float64
		for j := range s {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			s[j] = v[lo+int(rnd>>33)%(hi-lo)]
		}
		p := max(min(s[0], s[1]), min(max(s[0], s[1]), s[2]))
		lt, gt := lo, hi // v[lo:lt] < p, v[lt:i] == p, v[gt:hi] > p
		for i := lo; i < gt; {
			switch x := v[i]; {
			case x < p:
				v[i], v[lt] = v[lt], x
				lt++
				i++
			case x > p:
				gt--
				v[i], v[gt] = v[gt], x
			default:
				i++
			}
		}
		if k < lt {
			hi = lt
		} else if k >= gt {
			lo = gt
		} else {
			break // v[lt:gt] == p holds k
		}
	}
	return v[k] + 0 // -0 + 0 is +0; every other value, NaN included, is itself
}

// selectMedian returns the median of v, rearranging it: the middle element,
// or the mean of the two middle ones — once SelectKth has placed the upper,
// the lower is the largest element before it.
func selectMedian(v []float64) float64 {
	n := len(v)
	hi := SelectKth(v, n/2)
	if n%2 == 1 {
		return hi
	}
	lo := v[0]
	for _, x := range v[1 : n/2] {
		if x > lo || lo != lo {
			lo = x
		}
	}
	return (lo+hi)/2 + 0
}
