package experiments

import (
	"fmt"

	"github.com/wsn-tools/vn2/internal/trace"
)

// ThresholdSensitivity sweeps the exception-detection cutoff around the
// paper's εᵤ/max(εᵤ) ≥ 0.01 rule and reports how the exception population
// responds — the ablation behind trusting the 1% default: the count should
// be stable in the cutoff's neighborhood (the exceptions are far above the
// normal bulk) and explode only when the cutoff dives into the noise floor.
func (r *Runner) ThresholdSensitivity() (*Table, error) {
	res, err := r.Training()
	if err != nil {
		return nil, err
	}
	states := res.Dataset.States()
	t := &Table{
		ID:      "threshold",
		Title:   "Exception-count sensitivity to the detection cutoff (ablation)",
		Columns: []string{"threshold", "exceptions", "share"},
	}
	thresholds := []float64{0.0001, 0.001, 0.005, 0.01, 0.02, 0.05, 0.1}
	var at01, atLow int
	for _, th := range thresholds {
		det, err := trace.DetectExceptions(states, th)
		if err != nil {
			return nil, err
		}
		count := len(det.Indices)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.4f", th),
			fmt.Sprintf("%d", count),
			fmt.Sprintf("%.4f%%", 100*float64(count)/float64(len(states))),
		})
		if th == 0.01 {
			at01 = count
		}
		if th == 0.0001 {
			atLow = count
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d states total; %d exceptions at the paper's 0.01 cutoff", len(states), at01),
		fmt.Sprintf("lowering the cutoff 100x (to 0.0001) admits %.1fx more states — the plateau above the noise floor is where 0.01 sits", ratioOrZero(atLow, at01)))
	return t, nil
}

func ratioOrZero(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
