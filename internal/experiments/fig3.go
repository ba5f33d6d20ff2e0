package experiments

import (
	"fmt"
	"strconv"

	"github.com/wsn-tools/vn2/internal/metricspec"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2"
)

// fig3aMetrics are the four injected metrics Fig. 3(a) plots.
var fig3aMetrics = []metricspec.ID{
	metricspec.Voltage,
	metricspec.NeighborRSSI(0),
	metricspec.RadioOnTime,
	metricspec.ReceiveCounter,
}

// Fig3a reproduces Fig. 3(a): metric variations over time with the
// detected exceptions flagged. Most variations cluster near zero (normal
// statuses); the discrete outliers are the exceptions.
func (r *Runner) Fig3a() (*Table, error) {
	res, err := r.Training()
	if err != nil {
		return nil, err
	}
	states := res.Dataset.States()
	det, err := trace.DetectExceptions(states, 0)
	if err != nil {
		return nil, err
	}
	flagged := make(map[int]bool, len(det.Indices))
	for _, i := range det.Indices {
		flagged[i] = true
	}

	t := &Table{
		ID:    "fig3a",
		Title: "Metric variations over time with detected exceptions (Fig. 3a)",
		Columns: []string{"epoch", "node", "dVoltage", "dNeighborRssi1",
			"dRadioOnTime", "dReceiveCounter", "exception"},
	}
	// Sample the series sparsely and include every exception row so the
	// table shows both the near-zero bulk and the discrete outliers.
	stride := len(states)/60 + 1
	for i, s := range states {
		if !flagged[i] && i%stride != 0 {
			continue
		}
		row := []string{
			strconv.Itoa(s.Epoch),
			strconv.Itoa(int(s.Node)),
		}
		for _, id := range fig3aMetrics {
			row = append(row, fmt.Sprintf("%.3f", s.Delta[id]))
		}
		row = append(row, boolMark(flagged[i]))
		t.Rows = append(t.Rows, row)
		if len(t.Rows) >= 400 {
			break
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d of %d states flagged as exceptions (%.2f%%)",
			len(det.Indices), len(states), 100*float64(len(det.Indices))/float64(len(states))),
		"most variations sit near zero; exceptions are sparse discrete outliers")
	return t, nil
}

func boolMark(b bool) string {
	if b {
		return "*"
	}
	return ""
}

// Fig3b reproduces Fig. 3(b): approximation accuracy against the number of
// representative vectors r, with the original W and the Algorithm-2
// sparsified W̄. The paper picks r=25 where the curves balance.
func (r *Runner) Fig3b() (*Table, error) {
	res, err := r.Training()
	if err != nil {
		return nil, err
	}
	states := res.Dataset.States()
	det, err := trace.DetectExceptions(states, 0)
	if err != nil {
		return nil, err
	}
	_, report, err := vn2.Train(states, vn2.TrainConfig{
		Seed:      r.opts.Seed,
		SweepMin:  5,
		SweepMax:  sweepMax(len(det.Indices), r.opts.Quick),
		SweepStep: 5,
		// The sweep points are independent factorizations, bit-identical
		// for any worker count, so they take every core.
		Workers: -1,
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "fig3b",
		Title:   "Compression accuracy vs representative vectors r (Fig. 3b)",
		Columns: []string{"r", "alpha(original W)", "alpha(sparse W)", "gap"},
	}
	for _, p := range report.RankSweep {
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(p.Rank),
			fmt.Sprintf("%.4f", p.Accuracy),
			fmt.Sprintf("%.4f", p.SparseAccuracy),
			fmt.Sprintf("%.4f", p.SparsityGap()),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("selected r = %d", report.SelectedRank),
		"error falls as r grows; the sparse-W gap widens at large r — the paper's trade-off behind choosing r=25")
	return t, nil
}

func sweepMax(exceptions int, quick bool) int {
	max := 40
	if quick {
		max = 20
	}
	if exceptions < max {
		max = exceptions
	}
	return max
}

// Fig3c reproduces Fig. 3(c): the correlation between each detected
// exception and the root-cause vectors of Ψ — each exception correlates
// with a small subset of causes.
func (r *Runner) Fig3c() (*Table, error) {
	model, report, err := r.Model()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig3c",
		Title:   "Correlation between exceptions and root-cause vectors of Psi (Fig. 3c)",
		Columns: []string{"cause", "exceptions correlated", "mean strength", "share"},
	}
	// Count, per cause, the exceptions whose strength on it is material.
	w := report.W
	n, k := w.Dims()
	const material = 1e-3
	var totalLinks int
	counts := make([]int, k)
	sums := make([]float64, k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			if v := w.At(i, j); v > material {
				counts[j]++
				sums[j] += v
				totalLinks++
			}
		}
	}
	for j := 0; j < k; j++ {
		mean := 0.0
		if counts[j] > 0 {
			mean = sums[j] / float64(counts[j])
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("psi%d", j+1),
			strconv.Itoa(counts[j]),
			fmt.Sprintf("%.4f", mean),
			fmt.Sprintf("%.3f", float64(counts[j])/float64(n)),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d exceptions, %d material exception-cause links, %.2f causes per exception on average",
			n, totalLinks, float64(totalLinks)/float64(n)),
		fmt.Sprintf("rank r = %d; sparsified W retains %.0f%% mass", model.Rank, model.Keep*100),
		"each exception correlates with a small subset of the root-cause vectors")
	return t, nil
}
