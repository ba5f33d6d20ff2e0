package nmf

import (
	"fmt"
	"math"

	"github.com/wsn-tools/vn2/internal/mat"
)

// Resume continues a factorization from existing factors instead of a
// random start: the incremental-retraining path for a long-lived
// deployment, where yesterday's Ψ seeds today's (the "further develop VN2"
// direction of Section VI). The input factors are not modified.
//
// e must be n×m non-negative; w0 must be n×r and psi0 r×m, both strictly
// non-negative (zero entries stay zero under multiplicative updates, which
// is desirable for warm starts: structure is preserved).
//
// When the new exception matrix has more rows than w0 (new exceptions since
// the last training), the extra rows of W are initialized uniformly.
func Resume(e, w0, psi0 *mat.Dense, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	n, m := e.Dims()
	wr, wc := w0.Dims()
	pr, pc := psi0.Dims()
	if wc != pr {
		return nil, fmt.Errorf("%w: W %dx%d vs Psi %dx%d", mat.ErrDimension, wr, wc, pr, pc)
	}
	if pc != m {
		return nil, fmt.Errorf("%w: Psi has %d columns, data %d", mat.ErrDimension, pc, m)
	}
	if wr > n {
		return nil, fmt.Errorf("%w: W has %d rows, data only %d", mat.ErrDimension, wr, n)
	}
	if !e.NonNegative() {
		return nil, ErrNegativeInput
	}
	rank := wc
	if rank < 1 || rank > n || rank > m {
		return nil, fmt.Errorf("%w: resumed rank %d for %dx%d matrix", ErrBadRank, rank, n, m)
	}

	w := mat.MustNew(n, rank)
	uniform := 1.0 / float64(rank)
	for i := 0; i < n; i++ {
		if i < wr {
			w.SetRow(i, w0.Row(i))
		} else {
			row := w.RawRow(i)
			for j := range row {
				row[j] = uniform
			}
		}
	}
	// A strictly zero entry never escapes zero under multiplicative
	// updates; nudge exact zeros so resumed factors can still adapt.
	const nudge = 1e-6
	w.Apply(func(_, _ int, v float64) float64 {
		if v <= 0 {
			return nudge
		}
		return v
	})
	psi := psi0.Clone()
	psi.Apply(func(_, _ int, v float64) float64 {
		if v <= 0 {
			return nudge
		}
		return v
	})

	res := &Result{W: w, Psi: psi, History: make([]float64, 0, cfg.MaxIter)}
	st := newUpdateState(n, m, rank, cfg.Workers)
	defer st.close()
	prev := math.Inf(1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		st.sweepEuclidean(e, w, psi)
		obj := objective(e, w, psi, st)
		res.History = append(res.History, obj)
		res.Iterations = iter + 1
		if cfg.Tolerance > 0 && !math.IsInf(prev, 1) && prev-obj <= cfg.Tolerance*math.Max(prev, 1) {
			res.Converged = true
			break
		}
		prev = obj
	}
	return res, nil
}
