// Package vn2 is the public API of the VN2 network-performance visibility
// tool (Li et al., ICDCS 2014). VN2 quantifies a sensor node's state as the
// variation of 43 injected metrics between successive reports, learns a
// representative matrix Ψ of network exceptions with Non-negative Matrix
// Factorization, and attributes new abnormal states to one or more root
// causes by non-negative projection onto Ψ.
//
// Typical use:
//
//	states := dataset.States()
//	model, report, err := vn2.Train(states, vn2.TrainConfig{})
//	diag, err := model.Diagnose(newState)
//	for _, rc := range diag.Ranked {
//	    exp, _ := model.Explain(rc.Cause, 5)
//	    fmt.Println(exp.Summary())
//	}
package vn2

import (
	"errors"
	"fmt"
	"math"

	"github.com/wsn-tools/vn2/internal/mat"
	"github.com/wsn-tools/vn2/internal/nnls"
	"github.com/wsn-tools/vn2/internal/trace"
)

// Errors returned by the package.
var (
	// ErrNotTrained reports use of a zero-valued model.
	ErrNotTrained = errors.New("vn2: model is not trained")
	// ErrBadCause reports a root-cause index outside [0, Rank).
	ErrBadCause = errors.New("vn2: root cause index out of range")
	// ErrStateLength reports a state whose metric count does not match the
	// model.
	ErrStateLength = errors.New("vn2: state length does not match model")
	// ErrNoStates reports training on an empty state set.
	ErrNoStates = errors.New("vn2: no states to train on")
)

// Model is a trained VN2 representative matrix with everything needed to
// diagnose new states.
type Model struct {
	// Psi is the r×M representative matrix on the normalized magnitude
	// scale; each row is a root-cause vector.
	Psi *mat.Dense `json:"psi"`
	// Signatures is the r×M signed interpretation of each root cause,
	// scaled to [-1,1] per row — the Fig. 4 / Fig. 5(c–f) view.
	Signatures *mat.Dense `json:"signatures"`
	// Scale holds the per-metric normalization divisors applied before
	// factorization and at inference time.
	Scale []float64 `json:"scale"`
	// MetricNames are the M metric labels, in vector order.
	MetricNames []string `json:"metric_names"`
	// Rank is the compression factor r.
	Rank int `json:"rank"`
	// Keep is the Algorithm-2 retained-information fraction used during
	// training.
	Keep float64 `json:"keep"`
	// TrainStates is the number of exception states factorized.
	TrainStates int `json:"train_states"`
	// Labels holds optional expert labels per root cause (Problem 2's
	// output); persisted with the model. May be nil.
	Labels map[int]string `json:"labels,omitempty"`
	// Calibration is the Section IV-B detector over the training window,
	// without a threshold; nil in a model saved before models carried one.
	Calibration *trace.Detector `json:"calibration,omitempty"`

	// gram is ΨΨᵀ for the basis gramOf: Train, Update and Load build it,
	// diagnoses only read it. Psi is not written to once a model diagnoses.
	gram, gramOf *mat.Dense
}

// cacheGram is called by Train, Update and Load, before the model is shared.
func (m *Model) cacheGram() { m.gram, m.gramOf = nnls.Gram(m.Psi), m.Psi }

// basisGram returns ΨΨᵀ: the cached matrix while Psi is still the basis it
// was built from, a fresh one for a literal Model or a re-pointed Psi.
func (m *Model) basisGram() *mat.Dense {
	if m.gramOf == m.Psi {
		return m.gram
	}
	return nnls.Gram(m.Psi)
}

// SetLabel attaches an expert label to root cause j, replacing any prior
// label. Empty labels remove the entry.
func (m *Model) SetLabel(j int, label string) error {
	if !m.trained() {
		return ErrNotTrained
	}
	if j < 0 || j >= m.Rank {
		return fmt.Errorf("%w: %d of %d", ErrBadCause, j, m.Rank)
	}
	if label == "" {
		delete(m.Labels, j)
		return nil
	}
	if m.Labels == nil {
		m.Labels = make(map[int]string)
	}
	m.Labels[j] = label
	return nil
}

// Label returns root cause j's expert label, or "" when unlabeled. Like an
// unset label, an untrained model or an out-of-range j yields "" — the
// mirror of SetLabel's validation, so freshly trained models (nil Labels)
// and bad indices are safe to query.
func (m *Model) Label(j int) string {
	if !m.trained() || j < 0 || j >= m.Rank {
		return ""
	}
	return m.Labels[j]
}

// trained reports whether the model carries a usable basis.
func (m *Model) trained() bool {
	return m != nil && m.Psi != nil && m.Rank > 0 && len(m.Scale) > 0
}

// Metrics returns M, the metric count.
func (m *Model) Metrics() int {
	if m.Psi == nil {
		return 0
	}
	return m.Psi.Cols()
}

// normalize maps a raw state delta onto the model's training scale,
// returning the magnitude vector used for projection.
func (m *Model) normalize(delta []float64) ([]float64, error) {
	if len(delta) != len(m.Scale) {
		return nil, fmt.Errorf("%w: state %d, model %d", ErrStateLength, len(delta), len(m.Scale))
	}
	out := make([]float64, len(delta))
	for i, v := range delta {
		out[i] = math.Abs(v) / m.Scale[i]
	}
	return out, nil
}

// RootCause returns root cause j's basis row (normalized magnitude space).
func (m *Model) RootCause(j int) ([]float64, error) {
	if !m.trained() {
		return nil, ErrNotTrained
	}
	if j < 0 || j >= m.Rank {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadCause, j, m.Rank)
	}
	return m.Psi.Row(j), nil
}

// Signature returns root cause j's signed, [-1,1]-scaled metric profile.
func (m *Model) Signature(j int) ([]float64, error) {
	if !m.trained() || m.Signatures == nil {
		return nil, ErrNotTrained
	}
	if j < 0 || j >= m.Rank {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadCause, j, m.Rank)
	}
	return m.Signatures.Row(j), nil
}

// statesMatrix builds the (n×M) normalized magnitude matrix from states
// using the given per-metric scale.
func statesMatrix(states []trace.StateVector, scale []float64) (*mat.Dense, error) {
	if len(states) == 0 {
		return nil, ErrNoStates
	}
	m := len(states[0].Delta)
	if m != len(scale) {
		return nil, fmt.Errorf("%w: states %d, scale %d", ErrStateLength, m, len(scale))
	}
	out := mat.MustNew(len(states), m)
	for i, s := range states {
		if len(s.Delta) != m {
			return nil, fmt.Errorf("%w: state %d has %d metrics", ErrStateLength, i, len(s.Delta))
		}
		row := out.RawRow(i)
		for k, v := range s.Delta {
			row[k] = math.Abs(v) / scale[k]
		}
	}
	return out, nil
}
