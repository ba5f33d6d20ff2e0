package trace

import (
	"errors"
	"fmt"
	"math"
)

// ErrDetectorUncalibrated reports use of a zero-valued or corrupt Detector.
var ErrDetectorUncalibrated = errors.New("trace: detector is not calibrated")

// Detector is the Section IV-B exception detector frozen from a training
// window, so single incoming states can be scored online in O(M) without
// re-running batch detection over a growing window.
//
// DetectExceptions normalizes every deviation εᵤ by the *batch* max(ε);
// a Detector freezes that reference (RefMax) together with the robust
// center/scale calibration, making the per-state rule
//
//	ε(s)/RefMax ≥ Threshold
//
// a pure function of one state. Replaying the training window through
// Exceptional state by state is bit-identical to DetectExceptions on the
// same window: the per-state arithmetic is the same code, and RefMax is
// exactly the batch max the batch detector divides by.
//
// The struct is plain exported data so it serializes to JSON for the serve
// path's snapshot-to-disk (and back) without a custom codec.
type Detector struct {
	// Center is the frozen robust per-metric center (median of the
	// training deltas).
	Center []float64 `json:"center"`
	// Scale is the frozen robust per-metric spread (99th-percentile
	// absolute deviation, floored).
	Scale []float64 `json:"scale"`
	// RefMax is the frozen reference deviation: max(ε) over the training
	// window. Zero means the training window was perfectly uniform.
	RefMax float64 `json:"ref_max"`
	// Threshold is the ε/RefMax cutoff (the paper's 0.01 by default). A
	// model's calibration carries none: WithThreshold sets it at boot.
	Threshold float64 `json:"threshold,omitempty"`
}

// NewDetector calibrates a detector from a training window: robust
// center/scale per metric, the batch max deviation as the frozen
// normalization reference, and the exception threshold (≤ 0 uses
// defaultExceptionThreshold).
func NewDetector(states []StateVector, threshold float64) (*Detector, error) {
	d, _, err := calibrate(states, threshold)
	return d, err
}

// WithThreshold returns a copy of the calibration cutting at threshold
// (≤ 0 uses defaultExceptionThreshold). Center and Scale are shared.
func (d Detector) WithThreshold(threshold float64) *Detector {
	if threshold <= 0 {
		threshold = defaultExceptionThreshold
	}
	d.Threshold = threshold
	return &d
}

// Valid reports whether the detector carries a usable calibration.
func (d *Detector) Valid() bool {
	return d != nil && len(d.Center) > 0 && len(d.Center) == len(d.Scale) &&
		d.Threshold > 0 && d.RefMax >= 0
}

// Metrics returns M, the metric count the detector was calibrated on.
func (d *Detector) Metrics() int {
	if d == nil {
		return 0
	}
	return len(d.Center)
}

// rawScore computes the clipped squared standardized deviation ε of one
// delta against the frozen calibration. The loop is the same arithmetic the
// batch detector runs, so scores agree bit-for-bit. The caller guarantees
// len(delta) == len(d.Center).
func (d *Detector) rawScore(delta []float64) float64 {
	var eps float64
	for k, v := range delta {
		z := math.Abs(v-d.Center[k]) / d.Scale[k]
		if z > zClip {
			z = zClip
		}
		eps += z * z
	}
	return eps
}

// Score returns one state's raw deviation ε against the frozen calibration,
// in O(M).
func (d *Detector) Score(delta []float64) (float64, error) {
	if !d.Valid() {
		return 0, ErrDetectorUncalibrated
	}
	if len(delta) != len(d.Center) {
		return 0, fmt.Errorf("%w: state has %d metrics, detector %d", ErrVectorLength, len(delta), len(d.Center))
	}
	return d.rawScore(delta), nil
}

// Normalized returns ε/RefMax for one state — the quantity the paper's
// cutoff applies to. When the training window was perfectly uniform
// (RefMax 0) any non-zero deviation is unprecedented; it is reported as 1
// so it still trips every threshold ≤ 1, while a zero deviation stays 0.
func (d *Detector) Normalized(delta []float64) (float64, error) {
	eps, err := d.Score(delta)
	if err != nil {
		return 0, err
	}
	if d.RefMax == 0 {
		if eps > 0 {
			return 1, nil
		}
		return 0, nil
	}
	return eps / d.RefMax, nil
}

// Exceptional applies the frozen rule ε/RefMax ≥ Threshold to one state,
// returning the decision together with the normalized score.
func (d *Detector) Exceptional(delta []float64) (bool, float64, error) {
	score, err := d.Normalized(delta)
	if err != nil {
		return false, 0, err
	}
	return score >= d.Threshold, score, nil
}

// calibrate computes the frozen calibration and the raw (unnormalized)
// per-state deviations of the training window. Shared by NewDetector and
// DetectExceptions so the two stay bit-identical by construction.
// Each metric's two order statistics come from selection (select.go) on one
// column buffer: the median's selection rearranges it and the deviations are
// then taken in place — a percentile does not depend on the order. Five
// allocations whatever the window: calibration, column, scores.
func calibrate(states []StateVector, threshold float64) (*Detector, []float64, error) {
	if len(states) == 0 {
		return nil, nil, ErrEmpty
	}
	m := len(states[0].Delta)
	for i, s := range states {
		if len(s.Delta) != m {
			return nil, nil, fmt.Errorf("%w: state %d has %d metrics, want %d", ErrVectorLength, i, len(s.Delta), m)
		}
	}

	center := make([]float64, m)
	scale := make([]float64, m)
	col := make([]float64, len(states))
	p99 := int(0.99 * float64(len(states)-1))
	for k := 0; k < m; k++ {
		for i, s := range states {
			col[i] = s.Delta[k]
		}
		center[k] = selectMedian(col)
		for i, v := range col {
			col[i] = math.Abs(v - center[k])
		}
		// The 99th-percentile deviation is the "routine tail" of the
		// metric: normal churn (retry bursts, table updates) lands at
		// z ≤ ~1 while genuine anomalies stand 10-100× above it. It is
		// robust to a small anomaly fraction, unlike the standard
		// deviation, and unlike the MAD it does not declare a heavy-tailed
		// metric's own tail anomalous. The floor keeps constant metrics
		// harmless.
		scale[k] = SelectKth(col, p99)
		if scale[k] < 1e-9 {
			scale[k] = 1e-9
		}
	}

	d := Detector{Center: center, Scale: scale}.WithThreshold(threshold)
	scores := make([]float64, len(states))
	for i, s := range states {
		scores[i] = d.rawScore(s.Delta)
		if scores[i] > d.RefMax {
			d.RefMax = scores[i]
		}
	}
	return d, scores, nil
}
