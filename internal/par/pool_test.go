package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func poolWorkerGrid() []int {
	return []int{0, 1, 2, 4, 8, -1}
}

func TestPoolRunCoversAllIndices(t *testing.T) {
	for _, workers := range poolWorkerGrid() {
		p := NewPool(workers)
		const n = 97
		hits := make([]int32, n)
		p.Run(n, func(start, end int) {
			for i := start; i < end; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
		p.Close()
	}
}

func TestPoolRunMatchesSequential(t *testing.T) {
	const n = 1000
	ref := make([]float64, n)
	for i := range ref {
		ref[i] = float64(i)*1.5 + 3
	}
	for _, workers := range poolWorkerGrid() {
		p := NewPool(workers)
		out := make([]float64, n)
		p.Run(n, func(start, end int) {
			for i := start; i < end; i++ {
				out[i] = float64(i)*1.5 + 3
			}
		})
		p.Close()
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("workers=%d: out[%d]=%v, want %v", workers, i, out[i], ref[i])
			}
		}
	}
}

func TestPoolReuseAcrossRuns(t *testing.T) {
	// The same pool must serve many heterogeneous runs back to back; this is
	// the steady-state shape of a simulator epoch (hundreds of dispatches).
	p := NewPool(4)
	defer p.Close()
	for round := 0; round < 200; round++ {
		n := 1 + (round*31)%97
		sum := make([]int64, p.Workers())
		p.RunIndexed(n, func(w, start, end int) {
			for i := start; i < end; i++ {
				sum[w] += int64(i)
			}
		})
		var got int64
		for _, s := range sum {
			got += s
		}
		want := int64(n*(n-1)) / 2
		if got != want {
			t.Fatalf("round %d (n=%d): sum %d, want %d", round, n, got, want)
		}
	}
}

func TestPoolRunGrainInlinesSmallWork(t *testing.T) {
	// Below 2*grain indices there is only one chunk, so fn must run exactly
	// once on the calling goroutine.
	p := NewPool(8)
	defer p.Close()
	calls := 0
	p.RunGrain(31, 16, func(start, end int) {
		calls++
		if start != 0 || end != 31 {
			t.Fatalf("inline chunk [%d,%d), want [0,31)", start, end)
		}
	})
	if calls != 1 {
		t.Fatalf("fn called %d times, want 1", calls)
	}
	// At 2*grain the work splits in two.
	chunks := int32(0)
	p.RunGrain(32, 16, func(start, end int) {
		atomic.AddInt32(&chunks, 1)
		if end-start != 16 {
			t.Errorf("chunk [%d,%d) has %d indices, want 16", start, end, end-start)
		}
	})
	if chunks != 2 {
		t.Fatalf("RunGrain(32,16) used %d chunks, want 2", chunks)
	}
}

func TestPoolRunIndexedWorkerIDs(t *testing.T) {
	// Worker ids must be dense in [0, chunks) and chunk c must always land on
	// slot c — the invariant per-worker scratch ownership depends on.
	p := NewPool(4)
	defer p.Close()
	const n = 64
	owner := make([]int32, n)
	for i := range owner {
		owner[i] = -1
	}
	p.RunIndexed(n, func(w, start, end int) {
		if w < 0 || w >= p.Workers() {
			t.Errorf("worker id %d out of [0,%d)", w, p.Workers())
		}
		for i := start; i < end; i++ {
			atomic.StoreInt32(&owner[i], int32(w))
		}
	})
	want := partitionInto(nil, n, 4)
	for c, r := range want {
		for i := r.Start; i < r.End; i++ {
			if owner[i] != int32(c) {
				t.Fatalf("index %d owned by worker %d, want chunk owner %d", i, owner[i], c)
			}
		}
	}
}

func TestPoolRunErrLowestChunk(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 8} {
		p := NewPool(workers)
		err := p.RunErr(64, func(w, start, end int) error {
			return fmt.Errorf("chunk starting at row %d", start)
		})
		p.Close()
		if err == nil || err.Error() != "chunk starting at row 0" {
			t.Fatalf("workers=%d: err = %v, want chunk starting at row 0", workers, err)
		}
	}
}

func TestPoolRunErrLowestRowSemantics(t *testing.T) {
	sentinel := errors.New("bad row")
	for _, workers := range []int{1, 2, 4, 7, 16} {
		p := NewPool(workers)
		err := p.RunErr(64, func(w, start, end int) error {
			for i := start; i < end; i++ {
				if i == 30 || i == 50 {
					return fmt.Errorf("row %d: %w", i, sentinel)
				}
			}
			return nil
		})
		p.Close()
		if err == nil || err.Error() != "row 30: bad row" {
			t.Fatalf("workers=%d: err = %v, want row 30", workers, err)
		}
	}
}

func TestPoolRunErrNilAndStale(t *testing.T) {
	// A failed run must not leak its error into the next run's result.
	p := NewPool(4)
	defer p.Close()
	if err := p.RunErr(64, func(w, start, end int) error { return errors.New("boom") }); err == nil {
		t.Fatal("first RunErr: want error")
	}
	if err := p.RunErr(64, func(w, start, end int) error { return nil }); err != nil {
		t.Fatalf("second RunErr: %v, want nil (stale error leaked)", err)
	}
}

func TestPoolZeroLength(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	called := false
	p.Run(0, func(start, end int) { called = true })
	p.RunIndexed(-3, func(w, start, end int) { called = true })
	if err := p.RunErr(0, func(w, start, end int) error { called = true; return errors.New("no") }); err != nil {
		t.Fatalf("RunErr(0) = %v, want nil", err)
	}
	if called {
		t.Error("zero-length run invoked fn")
	}
}

func TestPoolCloseThenRun(t *testing.T) {
	// Close is idempotent and a closed pool degrades to inline sequential
	// execution with identical results.
	p := NewPool(4)
	p.Close()
	p.Close()
	const n = 50
	hits := make([]int, n)
	p.Run(n, func(start, end int) {
		if start != 0 || end != n {
			t.Fatalf("closed pool ran chunk [%d,%d), want inline [0,%d)", start, end, n)
		}
		for i := start; i < end; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times after Close", i, h)
		}
	}
	if err := p.RunErr(10, func(w, start, end int) error { return nil }); err != nil {
		t.Fatalf("RunErr on closed pool: %v", err)
	}
}

func TestPoolConcurrentSubmit(t *testing.T) {
	// Many goroutines submitting runs to one pool: runs serialize internally
	// and every run still covers its index space exactly once. Race-gated via
	// `make race`.
	p := NewPool(4)
	defer p.Close()
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
				var mu sync.Mutex
				p.Run(n, func(start, end int) {
					local := int64(0)
					for i := start; i < end; i++ {
						local += int64(i)
					}
					mu.Lock()
					total += local
					mu.Unlock()
				})
				if want := int64(n*(n-1)) / 2; total != want {
					t.Errorf("submitter %d round %d: total %d, want %d", s, round, total, want)
				}
			}
		}(s)
	}
	wg.Wait()
}

func TestPoolRunZeroAllocSteadyState(t *testing.T) {
	// The whole point of the pool: steady-state dispatch with a prebuilt fn
	// must not allocate, at any worker count.
	for _, workers := range []int{1, 4, 8} {
		p := NewPool(workers)
		sink := make([]float64, 4096)
		fn := func(start, end int) {
			for i := start; i < end; i++ {
				sink[i] = float64(i)
			}
		}
		p.Run(len(sink), fn) // warm up
		allocs := testing.AllocsPerRun(100, func() {
			p.Run(len(sink), fn)
		})
		p.Close()
		if allocs != 0 {
			t.Errorf("workers=%d: %.1f allocs per Run, want 0", workers, allocs)
		}
	}
}

func TestNewPoolWorkers(t *testing.T) {
	cases := []struct {
		in, want int
	}{
		{4, 4},
		{1, 1},
		{0, 1},
		{-1, runtime.GOMAXPROCS(0)},
	}
	for _, c := range cases {
		p := NewPool(c.in)
		if got := p.Workers(); got != c.want {
			t.Errorf("NewPool(%d).Workers() = %d, want %d", c.in, got, c.want)
		}
		p.Close()
	}
}
