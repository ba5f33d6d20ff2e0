// Package par provides the deterministic fork-join the coarse compute loops
// share (nmf's rank sweep, nnls' batch solves): Run splits an index space
// [0, n) into contiguous chunks computed up front — static partitioning, no
// work stealing — and runs them on goroutines that live for that one call.
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

import (
	"runtime"
	"sync"
)

// Workers normalizes a worker-count knob to an effective goroutine bound:
// n ≥ 1 is used as-is, 0 means sequential (one worker), and negative values
// resolve to runtime.GOMAXPROCS(0). This is the semantics of every compute
// Workers field (nmf.SweepConfig, vn2.TrainConfig, vn2.DiagnoseConfig). One
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

// Run calls fn once per chunk of [0, n) split into at most Workers(workers)
// contiguous chunks (partitionInto). Chunk 0 runs on the calling goroutine
// and every other chunk on a goroutine of its own; Run returns when all have
// finished, so it leaves no goroutine behind. worker is the chunk's index,
// dense in [0, chunks): per-worker scratch indexed by it is owned by one
// goroutine for the whole call. With one chunk fn runs inline and nothing
// is started.
//
// Run returns the error of the lowest-indexed chunk that failed. Chunks are
// contiguous and ascending, so when fn processes its rows in order and stops
// at its first failure, that is the error the sequential loop would have hit
// first — for any worker count.
func Run(n, workers int, fn func(worker, start, end int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w == 1 || n == 1 {
		return fn(0, 0, n)
	}
	chunks := partitionInto(n, w)
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	wg.Add(len(chunks) - 1)
	for c := 1; c < len(chunks); c++ {
		go func() {
			defer wg.Done()
			errs[c] = fn(c, chunks[c].Start, chunks[c].End)
		}()
	}
	errs[0] = fn(0, chunks[0].Start, chunks[0].End)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// partitionInto splits [0, n) into at most parts contiguous, near-equal,
// ascending ranges. Every index is covered exactly once and empty ranges are
// never emitted; the result is a pure function of (n, parts).
func partitionInto(n, parts int) []Range {
	if n <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	chunk := n / parts
	rem := n % parts
	out := make([]Range, 0, parts)
	start := 0
	for i := 0; i < parts; i++ {
		end := start + chunk
		if i < rem {
			end++
		}
		out = append(out, Range{Start: start, End: end})
		start = end
	}
	return out
}
