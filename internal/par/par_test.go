package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
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
			ranges := partitionInto(nil, n, parts)
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
	got := partitionInto(nil, 10, 3)
	want := []Range{{0, 4}, {4, 7}, {7, 10}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("partitionInto(10,3) = %v, want %v", got, want)
		}
	}
}

func TestPartitionIntoEdgeCases(t *testing.T) {
	if got := partitionInto(nil, 0, 4); len(got) != 0 {
		t.Errorf("partitionInto(0,4) = %v, want none", got)
	}
	if got := partitionInto(nil, -3, 4); len(got) != 0 {
		t.Errorf("partitionInto(-3,4) = %v, want none", got)
	}
	if got := partitionInto(nil, 5, 0); len(got) != 1 || got[0] != (Range{0, 5}) {
		t.Errorf("partitionInto(5,0) = %v, want [{0 5}]", got)
	}
}

// perCall and perCallErr fan out the way the cold callers (nnls.SolveBatchInto,
// nmf.SweepRanks) do: a pool made for the call, run once and closed. The For
// tests hold that pattern to the fan-out contract, at worker counts the
// reused-pool tests do not visit (3, 7, 16, more workers than indices).
func perCall(n, workers int, fn func(start, end int)) {
	p := NewPool(workers)
	defer p.Close()
	p.Run(n, fn)
}

func perCallErr(n, workers int, fn func(start, end int) error) error {
	p := NewPool(workers)
	defer p.Close()
	return p.RunErr(n, func(_, start, end int) error { return fn(start, end) })
}

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 4, -1, 64} {
		const n = 97
		hits := make([]int32, n)
		perCall(n, workers, func(start, end int) {
			for i := start; i < end; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForZeroLength(t *testing.T) {
	called := false
	perCall(0, 4, func(start, end int) { called = true })
	if called {
		t.Error("a zero-length run invoked fn")
	}
}

func TestForDeterministicDisjointWrites(t *testing.T) {
	const n = 1000
	ref := make([]float64, n)
	for i := range ref {
		ref[i] = float64(i)*1.5 + 3
	}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		out := make([]float64, n)
		perCall(n, workers, func(start, end int) {
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

func TestForErrNil(t *testing.T) {
	if err := perCallErr(50, 4, func(start, end int) error { return nil }); err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
}

func TestForErrReturnsLowestChunkError(t *testing.T) {
	// Every chunk fails; the reported error must come from the chunk owning
	// the lowest rows, for any worker count.
	for _, workers := range []int{1, 2, 3, 4, 8} {
		err := perCallErr(64, workers, func(start, end int) error {
			return fmt.Errorf("chunk starting at row %d", start)
		})
		if err == nil || err.Error() != "chunk starting at row 0" {
			t.Fatalf("workers=%d: err = %v, want chunk starting at row 0", workers, err)
		}
	}
}

func TestForErrLowestRowSemantics(t *testing.T) {
	// Rows 30 and 50 fail. Processing rows in order within each chunk and
	// stopping on the first failure must surface row 30's error for any
	// worker count — the error the sequential loop would return.
	sentinel := errors.New("bad row")
	for _, workers := range []int{1, 2, 4, 7, 16} {
		err := perCallErr(64, workers, func(start, end int) error {
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

func TestForErrZeroLength(t *testing.T) {
	if err := perCallErr(0, 4, func(start, end int) error { return errors.New("no") }); err != nil {
		t.Fatalf("zero-length run: err = %v, want nil", err)
	}
}
