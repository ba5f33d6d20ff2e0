package nmf

import (
	"runtime"
	"testing"

	"github.com/wsn-tools/vn2/internal/mat"
	"github.com/wsn-tools/vn2/internal/par"
)

// determinismWorkers is the worker grid of the bit-identity comparisons.
func determinismWorkers() []int {
	return []int{1, 2, 4, runtime.GOMAXPROCS(0)}
}

// onWorkers runs fn once per worker, all at once on par.Run's goroutines —
// the way SweepRanks runs its factorizations — and returns the results in
// worker order.
func onWorkers(t *testing.T, workers int, fn func() (*Result, error)) []*Result {
	t.Helper()
	out := make([]*Result, par.Workers(workers))
	if err := par.Run(len(out), workers, func(_, start, end int) error {
		for i := start; i < end; i++ {
			res, err := fn()
			if err != nil {
				return err
			}
			out[i] = res
		}
		return nil
	}); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return out
}

// TestFactorizeEuclideanBitIdenticalAcrossWorkers: factorizations running
// concurrently share no state — each is bit-identical to one run alone.
func TestFactorizeEuclideanBitIdenticalAcrossWorkers(t *testing.T) {
	e := syntheticLowRank(t, 60, 25, 4, 21)
	factorize := func() (*Result, error) {
		return Factorize(e, Config{Rank: 4, MaxIter: 40, Tolerance: -1, Seed: 3})
	}
	want, err := factorize()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range determinismWorkers() {
		for _, got := range onWorkers(t, w, factorize) {
			if !mat.Equal(want.W, got.W, 0) || !mat.Equal(want.Psi, got.Psi, 0) {
				t.Fatalf("workers=%d: factors differ from a lone run", w)
			}
			if got.Iterations != want.Iterations {
				t.Fatalf("workers=%d: %d iterations, want %d", w, got.Iterations, want.Iterations)
			}
			for i := range want.History {
				if got.History[i] != want.History[i] {
					t.Fatalf("workers=%d: objective history diverges at sweep %d", w, i)
				}
			}
		}
	}
}

func TestSweepRanksBitIdenticalAcrossWorkers(t *testing.T) {
	e := syntheticLowRank(t, 50, 30, 6, 23)
	sweep := func(workers int) []RankPoint {
		points, err := SweepRanks(e, SweepConfig{
			MinRank: 2, MaxRank: 10, Step: 2,
			Base:    Config{MaxIter: 30, Seed: 5},
			Workers: workers,
		})
		if err != nil {
			t.Fatalf("SweepRanks(workers=%d): %v", workers, err)
		}
		return points
	}
	want := sweep(0)
	if len(want) != 5 {
		t.Fatalf("sweep points = %d, want 5", len(want))
	}
	for _, w := range determinismWorkers() {
		got := sweep(w)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d points, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: point %d = %+v, want %+v", w, i, got[i], want[i])
			}
		}
	}
}

func TestSweepRanksParallelErrorIsLowestRank(t *testing.T) {
	// Rank 2 succeeds on a 4×4 matrix but ranks above min(n,m) fail; the
	// sweep must report the lowest failing rank for any worker count, as
	// the sequential pass would.
	e := syntheticLowRank(t, 4, 4, 2, 24)
	for _, w := range []int{0, 2, 4} {
		_, err := SweepRanks(e, SweepConfig{
			MinRank: 2, MaxRank: 8,
			Base:    Config{MaxIter: 5, Seed: 5},
			Workers: w,
		})
		if err == nil {
			t.Fatalf("workers=%d: no error from out-of-range sweep", w)
		}
		const want = "sweep rank 5"
		if got := err.Error(); len(got) < len(want) || got[:len(want)] != want {
			t.Fatalf("workers=%d: err = %q, want prefix %q", w, got, want)
		}
	}
}

// TestResumeBitIdenticalAcrossWorkers: warm starts from one shared seed
// factorization, running concurrently, neither disturb each other nor
// mutate the shared factors.
func TestResumeBitIdenticalAcrossWorkers(t *testing.T) {
	e := syntheticLowRank(t, 30, 20, 3, 25)
	seed, err := Factorize(e, Config{Rank: 3, MaxIter: 20, Seed: 9})
	if err != nil {
		t.Fatalf("seed factorization: %v", err)
	}
	resume := func() (*Result, error) {
		return Resume(e, seed.W, seed.Psi, Config{Rank: 3, MaxIter: 15, Tolerance: -1})
	}
	want, err := resume()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range determinismWorkers() {
		for _, got := range onWorkers(t, w, resume) {
			if !mat.Equal(want.W, got.W, 0) || !mat.Equal(want.Psi, got.Psi, 0) {
				t.Fatalf("workers=%d: resumed factors differ from a lone run", w)
			}
		}
	}
}
