package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	cases := []struct {
		in, want int
	}{
		{5, 5},
		{1, 1},
		{0, 1},
		{-1, runtime.GOMAXPROCS(0)},
		{-7, runtime.GOMAXPROCS(0)},
	}
	for _, c := range cases {
		if got := Workers(c.in); got != c.want {
			t.Errorf("Workers(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestPartitionIntoCoversExactlyOnce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 45, 100, 286} {
		for _, parts := range []int{1, 2, 3, 4, 7, 16, 300} {
			ranges := partitionInto(n, parts)
			seen := make([]int, n)
			prevEnd := 0
			for _, r := range ranges {
				if r.Start != prevEnd {
					t.Fatalf("n=%d parts=%d: range %v not contiguous after %d", n, parts, r, prevEnd)
				}
				if r.End <= r.Start {
					t.Fatalf("n=%d parts=%d: empty range %v", n, parts, r)
				}
				for i := r.Start; i < r.End; i++ {
					seen[i]++
				}
				prevEnd = r.End
			}
			if prevEnd != n {
				t.Fatalf("n=%d parts=%d: partition ends at %d", n, parts, prevEnd)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d parts=%d: index %d covered %d times", n, parts, i, c)
				}
			}
			want := parts
			if want > n {
				want = n
			}
			if len(ranges) != want {
				t.Fatalf("n=%d parts=%d: %d ranges, want %d", n, parts, len(ranges), want)
			}
		}
	}
}

func TestPartitionIntoNearEqual(t *testing.T) {
	got := partitionInto(10, 3)
	want := []Range{{0, 4}, {4, 7}, {7, 10}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("partitionInto(10,3) = %v, want %v", got, want)
		}
	}
}

func TestPartitionIntoEdgeCases(t *testing.T) {
	if got := partitionInto(0, 4); len(got) != 0 {
		t.Errorf("partitionInto(0,4) = %v, want none", got)
	}
	if got := partitionInto(-3, 4); len(got) != 0 {
		t.Errorf("partitionInto(-3,4) = %v, want none", got)
	}
	if got := partitionInto(5, 0); len(got) != 1 || got[0] != (Range{0, 5}) {
		t.Errorf("partitionInto(5,0) = %v, want [{0 5}]", got)
	}
}

// run adapts a chunk body without worker id or error to Run.
func run(n, workers int, fn func(start, end int)) {
	_ = Run(n, workers, func(_, start, end int) error { fn(start, end); return nil })
}

// hitsOnce fails unless every counter is exactly 1.
func hitsOnce(t *testing.T, ctx string, hits []int32) {
	t.Helper()
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("%s: index %d hit %d times", ctx, i, h)
		}
	}
}

func TestRunCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 4, -1, 64} {
		const n = 97
		hits := make([]int32, n)
		run(n, workers, func(start, end int) {
			for i := start; i < end; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		hitsOnce(t, fmt.Sprintf("workers=%d", workers), hits)
	}
}

func TestRunZeroLength(t *testing.T) {
	called := false
	run(0, 4, func(start, end int) { called = true })
	if called {
		t.Error("a zero-length run invoked fn")
	}
}

func TestRunDeterministicDisjointWrites(t *testing.T) {
	const n = 1000
	ref := make([]float64, n)
	for i := range ref {
		ref[i] = float64(i)*1.5 + 3
	}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		out := make([]float64, n)
		run(n, workers, func(start, end int) {
			for i := start; i < end; i++ {
				out[i] = float64(i)*1.5 + 3
			}
		})
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("workers=%d: out[%d]=%v, want %v", workers, i, out[i], ref[i])
			}
		}
	}
}

func TestRunErrNil(t *testing.T) {
	if err := Run(50, 4, func(_, start, end int) error { return nil }); err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
}

func TestRunErrReturnsLowestChunkError(t *testing.T) {
	// Every chunk fails; the reported error must come from the chunk owning
	// the lowest rows, for any worker count.
	for _, workers := range []int{1, 2, 3, 4, 8} {
		err := Run(64, workers, func(_, start, end int) error {
			return fmt.Errorf("chunk starting at row %d", start)
		})
		if err == nil || err.Error() != "chunk starting at row 0" {
			t.Fatalf("workers=%d: err = %v, want chunk starting at row 0", workers, err)
		}
	}
}

func TestRunErrLowestRowSemantics(t *testing.T) {
	// Rows 30 and 50 fail. Processing rows in order within each chunk and
	// stopping on the first failure must surface row 30's error for any
	// worker count — the error the sequential loop would return.
	sentinel := errors.New("bad row")
	for _, workers := range []int{1, 2, 4, 7, 16} {
		err := Run(64, workers, func(_, start, end int) error {
			for i := start; i < end; i++ {
				if i == 30 || i == 50 {
					return fmt.Errorf("row %d: %w", i, sentinel)
				}
			}
			return nil
		})
		if err == nil || !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want wrapped sentinel", workers, err)
		}
		if err.Error() != "row 30: bad row" {
			t.Fatalf("workers=%d: err = %q, want row 30", workers, err)
		}
	}
}

func TestRunErrZeroLength(t *testing.T) {
	if err := Run(0, 4, func(_, start, end int) error { return errors.New("no") }); err != nil {
		t.Fatalf("zero-length run: err = %v, want nil", err)
	}
}

// TestRunOneIndexPerChunk: with more workers than indices every index is
// its own chunk, run exactly once.
func TestRunOneIndexPerChunk(t *testing.T) {
	const n = 5
	hits := make([]int32, n)
	var chunks int32
	run(n, 64, func(start, end int) {
		atomic.AddInt32(&chunks, 1)
		if end-start != 1 {
			t.Errorf("chunk [%d,%d) holds %d indices, want 1", start, end, end-start)
		}
		for i := start; i < end; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	if chunks != n {
		t.Fatalf("%d chunks for %d indices, want %d", chunks, n, n)
	}
	hitsOnce(t, "workers=64", hits)
}

// TestRunNestedMatchesSequential: runs nest — a chunk may fan out again — and
// the nested result equals the sequential one.
func TestRunNestedMatchesSequential(t *testing.T) {
	const rows, cols = 12, 40
	want := make([]float64, rows*cols)
	for i := range want {
		want[i] = float64(i)*0.25 - 7
	}
	got := make([]float64, rows*cols)
	run(rows, 3, func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			run(cols, 2, func(c0, c1 int) {
				for c := c0; c < c1; c++ {
					i := r*cols + c
					got[i] = float64(i)*0.25 - 7
				}
			})
		}
	})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestRunBackToBack: many back-to-back runs of varying size, each
// summing into per-worker slots.
func TestRunBackToBack(t *testing.T) {
	const workers = 4
	for round := 0; round < 200; round++ {
		n := 1 + (round*31)%97
		sum := make([]int64, workers)
		_ = Run(n, workers, func(w, start, end int) error {
			for i := start; i < end; i++ {
				sum[w] += int64(i)
			}
			return nil
		})
		var got int64
		for _, s := range sum {
			got += s
		}
		if want := int64(n*(n-1)) / 2; got != want {
			t.Fatalf("round %d (n=%d): sum %d, want %d", round, n, got, want)
		}
	}
}

// TestPoolRunGrainInlinesSmallWork: a run of one chunk — one worker, or one
// index — calls fn once with the whole range and starts no goroutine.
func TestPoolRunGrainInlinesSmallWork(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{31, 0}, {31, 1}, {1, 8}} {
		before := runtime.NumGoroutine()
		calls := 0
		run(c.n, c.workers, func(start, end int) {
			calls++
			if start != 0 || end != c.n {
				t.Fatalf("n=%d workers=%d: chunk [%d,%d), want [0,%d)", c.n, c.workers, start, end, c.n)
			}
			if g := runtime.NumGoroutine(); g != before {
				t.Errorf("n=%d workers=%d: %d goroutines inside the inline chunk, want %d", c.n, c.workers, g, before)
			}
		})
		if calls != 1 {
			t.Fatalf("n=%d workers=%d: fn called %d times, want 1", c.n, c.workers, calls)
		}
	}
}

// TestRunWorkerIDsDense: worker ids are dense in [0, chunks) and chunk
// c always carries id c — the invariant per-worker scratch ownership
// depends on.
func TestRunWorkerIDsDense(t *testing.T) {
	const n, workers = 64, 4
	owner := make([]int32, n)
	for i := range owner {
		owner[i] = -1
	}
	_ = Run(n, workers, func(w, start, end int) error {
		if w < 0 || w >= workers {
			t.Errorf("worker id %d out of [0,%d)", w, workers)
		}
		for i := start; i < end; i++ {
			atomic.StoreInt32(&owner[i], int32(w))
		}
		return nil
	})
	for c, r := range partitionInto(n, workers) {
		for i := r.Start; i < r.End; i++ {
			if owner[i] != int32(c) {
				t.Fatalf("index %d owned by worker %d, want chunk owner %d", i, owner[i], c)
			}
		}
	}
}

// TestRunErrLowestFailingChunk: when chunk 0 succeeds, the error is the lowest
// failing chunk's, not whichever finished first.
func TestRunErrLowestFailingChunk(t *testing.T) {
	for _, workers := range []int{3, 4, 8} {
		err := Run(64, workers, func(w, start, end int) error {
			if w == 0 {
				return nil
			}
			if w == 1 {
				time.Sleep(2 * time.Millisecond) // finish after the later chunks
			}
			return fmt.Errorf("chunk %d", w)
		})
		if err == nil || err.Error() != "chunk 1" {
			t.Fatalf("workers=%d: err = %v, want chunk 1", workers, err)
		}
	}
}

// TestPoolRunErrLowestRowSemantics: a failing chunk cancels nothing — Run
// returns only after every other chunk has run to its end.
func TestPoolRunErrLowestRowSemantics(t *testing.T) {
	for _, workers := range []int{2, 4, 7} {
		const n = 64
		hits := make([]int32, n)
		err := Run(n, workers, func(w, start, end int) error {
			if w == 0 {
				return errors.New("first chunk fails at once")
			}
			for i := start; i < end; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		first := partitionInto(n, workers)[0]
		for i := first.End; i < n; i++ {
			if hits[i] != 1 {
				t.Fatalf("workers=%d: index %d hit %d times after the failure", workers, i, hits[i])
			}
		}
	}
}

// TestPoolRunErrNilAndStale: a run where every chunk succeeds returns nil at
// every worker count, also right after a run that failed.
func TestPoolRunErrNilAndStale(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, -1} {
		if err := Run(64, workers, func(_, _, _ int) error { return errors.New("boom") }); err == nil {
			t.Fatalf("workers=%d: failing run returned nil", workers)
		}
		if err := Run(64, workers, func(_, _, _ int) error { return nil }); err != nil {
			t.Fatalf("workers=%d: %v, want nil", workers, err)
		}
	}
}

// TestPoolZeroLength: a negative or zero length calls nothing at any worker
// count.
func TestPoolZeroLength(t *testing.T) {
	for _, workers := range []int{0, 1, 4, -1} {
		for _, n := range []int{0, -3} {
			if err := Run(n, workers, func(_, _, _ int) error {
				t.Errorf("workers=%d n=%d: fn called", workers, n)
				return errors.New("no")
			}); err != nil {
				t.Fatalf("workers=%d n=%d: err = %v, want nil", workers, n, err)
			}
		}
	}
}

// TestPoolCloseThenRun: Run leaves no goroutine behind — the goroutines it
// starts are gone once it has returned (they may take a moment to exit
// after signalling completion).
func TestPoolCloseThenRun(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		run(256, 8, func(start, end int) {})
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolConcurrentSubmit: runs started from many goroutines at once are
// independent — each covers its own index space exactly once. Race-gated via
// `make race`.
func TestPoolConcurrentSubmit(t *testing.T) {
	const submitters = 8
	const rounds = 50
	var wg sync.WaitGroup
	wg.Add(submitters)
	for s := 0; s < submitters; s++ {
		go func(s int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				n := 16 + (s*7+round)%48
				var total int64
				run(n, 4, func(start, end int) {
					local := int64(0)
					for i := start; i < end; i++ {
						local += int64(i)
					}
					atomic.AddInt64(&total, local)
				})
				if want := int64(n*(n-1)) / 2; total != want {
					t.Errorf("submitter %d round %d: total %d, want %d", s, round, total, want)
				}
			}
		}(s)
	}
	wg.Wait()
}

// TestPoolRunZeroAllocSteadyState: the sequential path — one worker, or one
// index — costs a function call and no allocation.
func TestPoolRunZeroAllocSteadyState(t *testing.T) {
	sink := make([]float64, 4096)
	fn := func(_, start, end int) error {
		for i := start; i < end; i++ {
			sink[i] = float64(i)
		}
		return nil
	}
	for _, c := range []struct{ n, workers int }{{len(sink), 0}, {len(sink), 1}, {1, 8}} {
		allocs := testing.AllocsPerRun(100, func() { _ = Run(c.n, c.workers, fn) })
		if allocs != 0 {
			t.Errorf("n=%d workers=%d: %.1f allocs per Run, want 0", c.n, c.workers, allocs)
		}
	}
}

// TestRunAppliesWorkersNorm: Run applies the Workers norm — it uses
// min(Workers(w), n) chunks.
func TestRunAppliesWorkersNorm(t *testing.T) {
	const n = 64
	for _, w := range []int{4, 1, 0, -1} {
		var mu sync.Mutex
		ids := map[int]bool{}
		_ = Run(n, w, func(id, _, _ int) error {
			mu.Lock()
			ids[id] = true
			mu.Unlock()
			return nil
		})
		want := Workers(w)
		if want > n {
			want = n
		}
		if len(ids) != want {
			t.Errorf("Run(%d, %d) used %d chunks, want %d", n, w, len(ids), want)
		}
	}
}
