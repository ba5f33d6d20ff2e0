package vn2

import (
	"fmt"
	"math"
	"sort"

	"github.com/wsn-tools/vn2/internal/mat"
	"github.com/wsn-tools/vn2/internal/nnls"
	"github.com/wsn-tools/vn2/internal/trace"
)

// RankedCause is one root cause with its inferred strength.
type RankedCause struct {
	// Cause indexes the model's root causes [0, Rank).
	Cause int `json:"cause"`
	// Strength is the non-negative correlation strength w_j.
	Strength float64 `json:"strength"`
}

// Diagnosis is the result of projecting one node state onto Ψ (Problem 3).
type Diagnosis struct {
	// Weights is the full correlation-strength vector w (length Rank).
	Weights []float64 `json:"weights"`
	// Ranked lists causes with non-zero strength, strongest first.
	Ranked []RankedCause `json:"ranked"`
	// Residual is ‖s − wΨ‖ in the normalized space: how much of the state
	// the basis could not explain.
	Residual float64 `json:"residual"`
}

// Normal reports whether the state needed essentially no root cause: the
// diagnosis of a healthy node, where "the variation xj ≈ 0" for all j.
func (d *Diagnosis) Normal(tol float64) bool {
	for _, w := range d.Weights {
		if w > tol {
			return false
		}
	}
	return true
}

// Dominant returns the strongest cause, or -1 for an all-zero diagnosis.
func (d *Diagnosis) Dominant() int {
	if len(d.Ranked) == 0 {
		return -1
	}
	return d.Ranked[0].Cause
}

// minStrength is the weight below which a cause is left out of the ranking.
const minStrength = 1e-6

// DiagnoseConfig tunes inference.
type DiagnoseConfig struct {
	// Workers parallelizes batch diagnosis across this many goroutines;
	// 0 keeps it sequential and 1 or more fans out (negative uses
	// GOMAXPROCS). Results are identical for any value.
	Workers int
}

// Diagnose solves Problem 3, argmin_w ‖s − wΨ‖² s.t. w ≥ 0, for one state
// and ranks the correlated root causes by strength.
func (m *Model) Diagnose(state trace.StateVector) (*Diagnosis, error) {
	if !m.trained() {
		return nil, ErrNotTrained
	}
	s, err := m.normalize(state.Delta)
	if err != nil {
		return nil, err
	}
	sol, err := nnls.Solve(s, m.Psi, m.basisGram())
	if err != nil {
		return nil, fmt.Errorf("project state: %w", err)
	}
	return rankDiagnosis(sol.W, sol.Residual), nil
}

// DiagnoseBatch diagnoses many states, returning one Diagnosis per state.
func (m *Model) DiagnoseBatch(states []trace.StateVector, cfg DiagnoseConfig) ([]*Diagnosis, error) {
	if !m.trained() {
		return nil, ErrNotTrained
	}
	if len(states) == 0 {
		return nil, ErrNoStates
	}
	sm, err := statesMatrix(states, m.Scale)
	if err != nil {
		return nil, err
	}
	weights, residuals := mat.MustNew(len(states), m.Psi.Rows()), make([]float64, len(states))
	if err := nnls.SolveBatchInto(weights, residuals, sm, m.Psi, m.basisGram(), cfg.Workers); err != nil {
		return nil, fmt.Errorf("project states: %w", err)
	}
	out := make([]*Diagnosis, len(states))
	for i := range states {
		out[i] = rankDiagnosis(weights.Row(i), residuals[i])
	}
	return out, nil
}

// NormalizedNorm returns ‖s‖ of a state delta in the model's normalized
// magnitude space — the denominator that turns a Diagnosis.Residual into a
// scale-free relative residual. A relative residual near 0 means the basis
// explains the state; near 1 means it explains essentially nothing (the
// drift signal the online monitor watches).
func (m *Model) NormalizedNorm(delta []float64) (float64, error) {
	if !m.trained() {
		return 0, ErrNotTrained
	}
	s, err := m.normalize(delta)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, v := range s {
		sum += v * v
	}
	return math.Sqrt(sum), nil
}

func rankDiagnosis(w []float64, residual float64) *Diagnosis {
	d := &Diagnosis{
		Weights:  append([]float64(nil), w...),
		Residual: residual,
	}
	for j, v := range w {
		if v >= minStrength {
			d.Ranked = append(d.Ranked, RankedCause{Cause: j, Strength: v})
		}
	}
	sort.Slice(d.Ranked, func(a, b int) bool {
		if d.Ranked[a].Strength != d.Ranked[b].Strength {
			return d.Ranked[a].Strength > d.Ranked[b].Strength
		}
		return d.Ranked[a].Cause < d.Ranked[b].Cause
	})
	return d
}

// CauseDistribution aggregates diagnoses into a per-cause total strength
// vector — the root-causes distribution plotted in Fig. 5(g–i) and
// Fig. 6(b).
func CauseDistribution(diagnoses []*Diagnosis, rank int) []float64 {
	out := make([]float64, rank)
	for _, d := range diagnoses {
		for _, rc := range d.Ranked {
			if rc.Cause < rank {
				out[rc.Cause] += rc.Strength
			}
		}
	}
	return out
}

// NormalizeDistribution scales a distribution to sum to 1 (when non-zero),
// making train/test distributions comparable as in Fig. 5(h)/(i).
func NormalizeDistribution(dist []float64) []float64 {
	var total float64
	for _, v := range dist {
		total += v
	}
	out := make([]float64, len(dist))
	if total == 0 {
		return out
	}
	for i, v := range dist {
		out[i] = v / total
	}
	return out
}

// CorrelationMatrix computes the exception×cause strength matrix for a set
// of states — the scatter data behind Fig. 3(c) and Fig. 5(b): entry (i,j)
// is the strength of cause j on exception i.
func (m *Model) CorrelationMatrix(states []trace.StateVector, cfg DiagnoseConfig) (*mat.Dense, error) {
	diags, err := m.DiagnoseBatch(states, cfg)
	if err != nil {
		return nil, err
	}
	out := mat.MustNew(len(diags), m.Rank)
	for i, d := range diags {
		out.SetRow(i, d.Weights)
	}
	return out, nil
}
