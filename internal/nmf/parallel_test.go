package nmf

import (
	"runtime"
	"testing"

	"github.com/wsn-tools/vn2/internal/mat"
)

// determinismWorkers is the worker grid the ISSUE mandates for bit-identical
// parallel/sequential comparisons.
func determinismWorkers() []int {
	return []int{1, 2, 4, runtime.GOMAXPROCS(0)}
}

func factorizeWith(t *testing.T, e *mat.Dense, workers int) *Result {
	t.Helper()
	res, err := Factorize(e, Config{
		Rank: 4, MaxIter: 40, Tolerance: -1, Seed: 3, Workers: workers,
	})
	if err != nil {
		t.Fatalf("Factorize(workers=%d): %v", workers, err)
	}
	return res
}

func TestFactorizeEuclideanBitIdenticalAcrossWorkers(t *testing.T) {
	e := syntheticLowRank(t, 60, 25, 4, 21)
	want := factorizeWith(t, e, 0)
	for _, w := range determinismWorkers() {
		got := factorizeWith(t, e, w)
		if !mat.Equal(want.W, got.W, 0) || !mat.Equal(want.Psi, got.Psi, 0) {
			t.Fatalf("workers=%d: factors differ from sequential", w)
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

func TestResumeBitIdenticalAcrossWorkers(t *testing.T) {
	e := syntheticLowRank(t, 30, 20, 3, 25)
	seed, err := Factorize(e, Config{Rank: 3, MaxIter: 20, Seed: 9})
	if err != nil {
		t.Fatalf("seed factorization: %v", err)
	}
	resume := func(workers int) *Result {
		res, err := Resume(e, seed.W, seed.Psi, Config{Rank: 3, MaxIter: 15, Tolerance: -1, Workers: workers})
		if err != nil {
			t.Fatalf("Resume(workers=%d): %v", workers, err)
		}
		return res
	}
	want := resume(0)
	for _, w := range determinismWorkers() {
		got := resume(w)
		if !mat.Equal(want.W, got.W, 0) || !mat.Equal(want.Psi, got.Psi, 0) {
			t.Fatalf("workers=%d: resumed factors differ from sequential", w)
		}
	}
}
