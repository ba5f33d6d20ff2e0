package nnls

import (
	"fmt"

	"github.com/wsn-tools/vn2/internal/mat"
	"github.com/wsn-tools/vn2/internal/par"
)

// minParallelRows is the batch size below which SolveBatchInto stays on the
// caller: a solve costs microseconds, so a handful of rows — an event-driven
// drain — is done before a second goroutine wakes (r = 12: level at 64).
const minParallelRows = 64

// SolveBatchInto solves one NNLS problem per row of states (n×m) against psi
// (r×m) and gram = Gram(psi) into caller-provided buffers: weights n×r,
// residuals length n. From minParallelRows rows up the rows are statically
// partitioned by par.Run across workers (the par.Workers norm: 0
// sequential, ≥1 fans out, negative GOMAXPROCS). Each row is solved as the
// sequential path solves it, into its own output row, one scratch set per
// chunk (O(workers) allocations), so results are bit-identical for any
// worker count.
func SolveBatchInto(weights *mat.Dense, residuals []float64, states, psi, gram *mat.Dense, workers int) error {
	n, m := states.Dims()
	r, pm := psi.Dims()
	if m != pm || gram.Rows() != r || gram.Cols() != r {
		return fmt.Errorf("%w: states %dx%d, gram %dx%d, basis %dx%d", ErrShape, n, m, gram.Rows(), gram.Cols(), r, pm)
	}
	if wr, wc := weights.Dims(); wr != n || wc != r {
		return fmt.Errorf("nnls: weights buffer is %dx%d, want %dx%d", wr, wc, n, r)
	}
	if len(residuals) != n {
		return fmt.Errorf("nnls: residuals buffer has %d entries, want %d", len(residuals), n)
	}
	if n < minParallelRows {
		workers = 0
	}
	return par.Run(n, workers, func(_, start, end int) error {
		sc := newSolveScratch(r, m)
		for i := start; i < end; i++ {
			residuals[i], _ = solveInto(weights.RawRow(i), states.RawRow(i), psi, gram, sc)
		}
		return nil
	})
}
