package vn2

import (
	"fmt"

	"github.com/wsn-tools/vn2/internal/mat"
	"github.com/wsn-tools/vn2/internal/nmf"
	"github.com/wsn-tools/vn2/internal/trace"
)

// Update retrains the representative matrix incrementally from a fresh
// batch of states, warm-starting the factorization from the current Ψ —
// the long-lived-deployment workflow where yesterday's model seeds
// today's. The receiver is not modified; a new model is returned.
//
// The original normalization scale is kept so that diagnoses before and
// after the update remain comparable; the rank and the detector's
// calibration carry over.
func (m *Model) Update(states []trace.StateVector, cfg TrainConfig) (*Model, *TrainReport, error) {
	if !m.trained() {
		return nil, nil, ErrNotTrained
	}
	cfg = cfg.withDefaults()
	_, workingStates, report, err := extract(states, cfg)
	if err != nil {
		return nil, nil, err
	}

	e, err := statesMatrix(workingStates, m.Scale)
	if err != nil {
		return nil, nil, fmt.Errorf("build matrix: %w", err)
	}
	rank := m.Rank
	if max := minInt(e.Rows(), e.Cols()); rank > max {
		return nil, nil, fmt.Errorf("%w: %d new exceptions cannot support rank %d",
			ErrNoStates, e.Rows(), rank)
	}
	report.SelectedRank = rank

	// Warm start: fresh per-state strengths, yesterday's basis.
	w0 := mat.MustNew(e.Rows(), rank)
	w0.Fill(1.0 / float64(rank))
	res, err := nmf.Resume(e, w0, m.Psi, nmf.Config{
		Rank:    rank,
		MaxIter: cfg.MaxIter,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("resume factorization: %w", err)
	}
	return finish(res, e, workingStates, report, append([]float64(nil), m.Scale...),
		append([]string(nil), m.MetricNames...), m.Calibration)
}
