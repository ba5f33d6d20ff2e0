// Package par provides the deterministic fork-join parallelism substrate
// shared by the compute stack (mat, nmf, nnls, wsn). Its primitives split an
// index space [0, n) into contiguous chunks computed up front — static
// partitioning, no work stealing — and fan the chunks out across a bounded
// set of goroutines.
//
// # Determinism contract
//
// Every kernel run through this package must compute each index exactly as
// the sequential loop would (same per-index arithmetic, same accumulation
// order within an index) and write only to locations owned by that index.
// Under that contract the partition merely decides which goroutine computes
// which indices, never what is computed, so results are bit-identical to the
// sequential path for any worker count — the invariant the determinism tests
// across the repository enforce.
package par

import "runtime"

// Workers normalizes a worker-count knob to an effective goroutine bound:
// n ≥ 1 is used as-is, 0 means sequential (one worker), and negative values
// resolve to runtime.GOMAXPROCS(0). This is the semantics of every compute
// Workers field (nmf, nnls, wsn, vn2.TrainConfig, vn2.DiagnoseConfig). One
// caller reads 0 differently: online.Config.Workers (serve -workers) maps 0
// to -1 before it gets here, so a sink's drains default to all cores.
func Workers(n int) int {
	switch {
	case n >= 1:
		return n
	case n == 0:
		return 1
	default:
		return runtime.GOMAXPROCS(0)
	}
}

// Range is a half-open [Start, End) interval of row indices.
type Range struct {
	Start, End int
}
