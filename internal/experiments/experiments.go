// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV–V) on the simulated substrate: the Table I hazard
// catalog, the Fig. 3 trace study (exception detection, rank selection,
// exception↔cause correlation), the Fig. 4 root-cause interpretation, the
// Fig. 5 testbed study (node failure / reboot, local vs expansive
// scenarios), the Fig. 6 CitySee September study (PRR degradation
// diagnosis), and the baseline comparison.
//
// Each experiment returns structured rows and can render itself as a
// plain-text table, so the CLI, the benchmarks and EXPERIMENTS.md all draw
// from the same code path.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"github.com/wsn-tools/vn2/internal/tracegen"
	"github.com/wsn-tools/vn2/vn2"
)

// Table is a rendered experiment artifact: the rows/series a paper table
// or figure reports.
type Table struct {
	// ID is the experiment identifier, e.g. "fig3b".
	ID string
	// Title describes the artifact.
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows hold the data, already formatted.
	Rows [][]string
	// Notes carry the shape observations the artifact supports.
	Notes []string
}

// Fprint renders the table as aligned plain text.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = pad(c, w)
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Options sizes an experiment run.
type Options struct {
	// Seed drives all randomness.
	Seed int64
	// Quick shrinks workloads (fewer nodes, fewer days) for tests and CI;
	// the full configuration matches the paper's setup.
	Quick bool
}

// Runner memoizes the expensive shared artifacts (traces, trained models)
// across experiments so `experiment all` pays for each once.
type Runner struct {
	opts Options

	trainingOnce sync.Once
	training     *tracegen.Result
	trainingErr  error

	modelOnce sync.Once
	model     *vn2.Model
	modelRpt  *vn2.TrainReport
	modelErr  error

	septOnce   sync.Once
	sept       *tracegen.Result
	septWindow *tracegen.SeptemberWindow
	septDays   int
	septErr    error
}

// NewRunner builds a Runner.
func NewRunner(opts Options) *Runner {
	return &Runner{opts: opts}
}

// citySeeOptions yields the CitySee workload size for this run.
func (r *Runner) citySeeOptions() tracegen.CitySeeOptions {
	if r.opts.Quick {
		return tracegen.CitySeeOptions{Seed: r.opts.Seed, Days: 2, Nodes: 60}
	}
	return tracegen.CitySeeOptions{Seed: r.opts.Seed, Days: 7, Nodes: 286}
}

// citySeeRank is the paper's compression factor for the CitySee trace
// (r=25); quick runs shrink with the data.
func (r *Runner) citySeeRank() int {
	if r.opts.Quick {
		return 10
	}
	return 25
}

// testbedRank is the paper's compression factor for the testbed trace.
const testbedRank = 10

// Training returns the (memoized) CitySee training trace.
func (r *Runner) Training() (*tracegen.Result, error) {
	r.trainingOnce.Do(func() {
		r.training, r.trainingErr = tracegen.CitySeeTraining(r.citySeeOptions())
	})
	return r.training, r.trainingErr
}

// Model returns the (memoized) Ψ trained on the CitySee training trace —
// the paper's Ψ₂₅ₓ₄₃.
func (r *Runner) Model() (*vn2.Model, *vn2.TrainReport, error) {
	r.modelOnce.Do(func() {
		res, err := r.Training()
		if err != nil {
			r.modelErr = err
			return
		}
		r.model, r.modelRpt, r.modelErr = vn2.Train(res.Dataset.States(), vn2.TrainConfig{
			Rank: r.citySeeRank(),
			Seed: r.opts.Seed,
		})
	})
	return r.model, r.modelRpt, r.modelErr
}

// September returns the (memoized) CitySee September trace with its
// degraded window, plus the number of days simulated.
func (r *Runner) September() (*tracegen.Result, *tracegen.SeptemberWindow, int, error) {
	r.septOnce.Do(func() {
		opts := r.citySeeOptions()
		opts.Seed += 1000 // a different period than the training trace
		if r.opts.Quick {
			opts.Days = 4
		} else {
			opts.Days = 14
		}
		r.septDays = opts.Days
		r.sept, r.septWindow, r.septErr = tracegen.CitySeeSeptember(opts)
	})
	return r.sept, r.septWindow, r.septDays, r.septErr
}

// step is one experiment the CLI can name, and the tables it produces.
type step struct {
	name string
	run  func() ([]*Table, error)
}

// steps is the experiment table, in paper order.
func (r *Runner) steps() []step {
	one := func(f func() (*Table, error)) func() ([]*Table, error) {
		return func() ([]*Table, error) {
			t, err := f()
			if err != nil {
				return nil, err
			}
			return []*Table{t}, nil
		}
	}
	return []step{
		{"table1", one(r.TableI)},
		{"fig3a", one(r.Fig3a)},
		{"fig3b", one(r.Fig3b)},
		{"fig3c", one(r.Fig3c)},
		{"fig4", one(r.Fig4)},
		{"fig5", r.Fig5},
		{"fig6", r.Fig6},
		{"baselines", one(r.BaselineStudy)},
		{"prrest", one(r.PRREstimation)},
		{"threshold", one(r.ThresholdSensitivity)},
	}
}

// Run runs the experiment named id, or every experiment in paper order when
// id is "all".
func (r *Runner) Run(id string) ([]*Table, error) {
	var out []*Table
	found := false
	for _, s := range r.steps() {
		if id != "all" && id != s.name {
			continue
		}
		found = true
		ts, err := s.run()
		if err != nil {
			return out, fmt.Errorf("experiment %s: %w", s.name, err)
		}
		out = append(out, ts...)
	}
	if !found {
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
	return out, nil
}
