package trace

// defaultExceptionThreshold is the paper's cutoff: a state u is an
// exception when εᵤ/max(εᵤ) ≥ 0.01 (Section IV-B).
const defaultExceptionThreshold = 0.01

// zClip bounds a single metric's standardized deviation so that one
// colossal excursion (e.g. a counter reset of tens of thousands after a
// reboot) cannot raise max(ε) so far that every other anomaly class falls
// below the 1% cutoff. The paper's raw-unit rule works because its metrics
// share comparable scales; clipping restores that property here.
const zClip = 100.0

// ExceptionResult holds the output of the Section IV-B exception detector.
type ExceptionResult struct {
	// Indices are positions into the input states slice, ascending, of the
	// states flagged as exceptions.
	Indices []int
	// Scores is the normalized deviation εᵤ/max(εᵤ) per input state.
	Scores []float64
	// Center is the robust per-metric center (median) of the state deltas.
	Center []float64
	// Scale is the robust per-metric spread (99th-percentile absolute
	// deviation, floored) used to standardize deviations.
	Scale []float64
	// RefMax is max(εᵤ), the divisor of Scores.
	RefMax float64
}

// Exceptions returns the flagged states themselves.
func (r *ExceptionResult) Exceptions(states []StateVector) []StateVector {
	out := make([]StateVector, 0, len(r.Indices))
	for _, i := range r.Indices {
		out = append(out, states[i])
	}
	return out
}

// DetectExceptions implements the paper's detector: for each state u
// compute its deviation εᵤ from the typical state, and flag u when
// εᵤ/max(εᵤ) ≥ threshold. Deviations are standardized per metric with a
// robust center/scale (median and MAD) and clipped, so that a 0.1 V voltage
// drop, a 500-count retransmit burst and a 30000-second uptime reset are
// all visible to the same rule — the property the paper's raw-unit rule
// gets from its comparable metric scales.
//
// A threshold ≤ 0 uses defaultExceptionThreshold.
//
// DetectExceptions shares its calibration and scoring code with Detector,
// so freezing a Detector on the same window and replaying each state
// through Exceptional reproduces this result bit-for-bit. Perfectly uniform
// data (RefMax 0) flags nothing: nothing deviates.
func DetectExceptions(states []StateVector, threshold float64) (*ExceptionResult, error) {
	det, scores, err := calibrate(states, threshold)
	if err != nil {
		return nil, err
	}
	res := &ExceptionResult{Scores: scores, Center: det.Center, Scale: det.Scale, RefMax: det.RefMax}
	if det.RefMax == 0 {
		return res, nil
	}
	for i := range scores {
		scores[i] /= det.RefMax
		if scores[i] >= det.Threshold {
			res.Indices = append(res.Indices, i)
		}
	}
	return res, nil
}
