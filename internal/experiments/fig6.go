package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/internal/tracegen"
	"github.com/wsn-tools/vn2/vn2"
)

// Fig6 reproduces the CitySee September study: the system PRR distribution
// with its degradation window (Fig. 6a), the correlation strength of Ψ's
// representative vectors over the degraded period (Fig. 6b), and the
// detailed profiles of the dominant features (Fig. 6c). The paper's
// conclusion — the PRR dip is explained by network loops, contention and
// node failures — is checked against the injected ground truth.
func (r *Runner) Fig6() ([]*Table, error) {
	model, _, err := r.Model()
	if err != nil {
		return nil, err
	}
	sept, window, days, err := r.September()
	if err != nil {
		return nil, err
	}
	epochsPerDay := sept.Epochs / days

	var tables []*Table
	tables = append(tables, fig6a(sept, window, epochsPerDay))

	// Diagnose the window's states against the trained Ψ.
	var windowStates []trace.StateVector
	for _, s := range sept.Dataset.States() {
		day := (s.Epoch - 1) / epochsPerDay
		if day >= window.StartDay && day < window.EndDay {
			windowStates = append(windowStates, s)
		}
	}
	if len(windowStates) == 0 {
		return nil, fmt.Errorf("no states in the degraded window [%d,%d)", window.StartDay, window.EndDay)
	}
	diags, err := model.DiagnoseBatch(windowStates, vn2.DiagnoseConfig{Workers: -1})
	if err != nil {
		return nil, err
	}
	dist := vn2.CauseDistribution(diags, model.Rank)

	t6b := &Table{
		ID:      "fig6b",
		Title:   "Correlation strength of representative vectors over the degraded window (Fig. 6b)",
		Columns: []string{"cause", "total strength", "share"},
	}
	var total float64
	for _, v := range dist {
		total += v
	}
	ranked := make([]int, len(dist)) // causes, strongest first once sorted
	for j, v := range dist {
		ranked[j] = j
		share := 0.0
		if total > 0 {
			share = v / total
		}
		t6b.Rows = append(t6b.Rows, []string{
			fmt.Sprintf("psi%d", j+1),
			fmt.Sprintf("%.3f", v),
			fmt.Sprintf("%.3f", share),
		})
	}
	sort.Slice(ranked, func(a, b int) bool { return dist[ranked[a]] > dist[ranked[b]] })
	var top []string
	var topShare float64
	for _, c := range ranked[:min(4, len(ranked))] {
		top = append(top, fmt.Sprintf("psi%d", c+1))
		topShare += dist[c] / total
	}
	t6b.Notes = append(t6b.Notes,
		fmt.Sprintf("%d window states diagnosed against Psi(%dx%d)", len(windowStates), model.Rank, model.Metrics()),
		fmt.Sprintf("top four measured: %.3f of the strength on %s (the paper's Fig. 6b labels its four psi11, psi16, psi17, psi22)",
			topShare, strings.Join(top, ", ")))
	tables = append(tables, t6b)

	// Fig. 6c: detailed profiles of the dominant causes, with the
	// category-level conclusion check.
	t6c := &Table{
		ID:      "fig6c",
		Title:   "Detailed profiles of the dominant window features (Fig. 6c)",
		Columns: []string{"cause", "category", "top metric variations"},
	}
	catSeen := make(map[vn2.Category]bool)
	for i := range top {
		exp, err := model.Explain(ranked[i], 4)
		if err != nil {
			return nil, err
		}
		catSeen[exp.Category] = true
		var desc string
		for k, c := range exp.Top {
			if k > 0 {
				desc += ", "
			}
			desc += fmt.Sprintf("%s=%+.2f", c.Name, c.Signed)
		}
		t6c.Rows = append(t6c.Rows, []string{
			fmt.Sprintf("psi%d", exp.Cause+1),
			exp.Category.String(),
			desc,
		})
	}
	t6c.Notes = append(t6c.Notes,
		fmt.Sprintf("dominant causes span %d categories; ground truth in the window: loops, interference (contention) and node failures", len(catSeen)))
	tables = append(tables, t6c)
	return tables, nil
}

// fig6a renders the PRR series with the degradation window marked.
func fig6a(sept *tracegen.Result, window *tracegen.SeptemberWindow, epochsPerDay int) *Table {
	t := &Table{
		ID:      "fig6a",
		Title:   "System PRR distribution with the degraded window (Fig. 6a)",
		Columns: []string{"day", "mean PRR", "degraded window"},
	}
	days := sept.Epochs / epochsPerDay
	var healthySum, degradedSum float64
	var healthyN, degradedN int
	for d := 0; d < days; d++ {
		var sum float64
		var n int
		for _, p := range sept.PRR {
			if (p.Epoch-1)/epochsPerDay == d {
				sum += p.PRR
				n++
			}
		}
		mean := 0.0
		if n > 0 {
			mean = sum / float64(n)
		}
		inWindow := d >= window.StartDay && d < window.EndDay
		if inWindow {
			degradedSum += mean
			degradedN++
		} else {
			healthySum += mean
			healthyN++
		}
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(d + 14), // the trace starts Sep 14
			fmt.Sprintf("%.3f", mean),
			boolMark(inWindow),
		})
	}
	if healthyN > 0 && degradedN > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"mean PRR: healthy days %.3f vs degraded window %.3f — the Sep 20-22 dip of Fig. 6a",
			healthySum/float64(healthyN), degradedSum/float64(degradedN)))
	}
	return t
}
