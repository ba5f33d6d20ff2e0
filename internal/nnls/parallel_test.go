package nnls

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/wsn-tools/vn2/internal/mat"
)

// TestSolveBatchIntoMatchesBatch: every worker count is bit-identical to
// the single-worker batch, and repeated calls into the same buffers
// (the steady-state drain pattern) fully overwrite stale contents.
func TestSolveBatchIntoMatchesBatch(t *testing.T) {
	psi := randomBasis(t, 4, 15, 21)
	rng := rand.New(rand.NewSource(22))
	states := mat.MustNew(30, 15)
	for i := 0; i < 30; i++ {
		w := make([]float64, 4)
		for j := range w {
			w[j] = rng.Float64() * 2
		}
		states.SetRow(i, mix(w, psi))
	}
	seqW, seqR, err := solveBatch(states, psi, 1)
	if err != nil {
		t.Fatalf("solveBatch: %v", err)
	}

	weights := mat.MustNew(30, 4)
	residuals := make([]float64, 30)
	// Poison the buffers so any row SolveBatchInto fails to write shows up.
	for i := 0; i < 30; i++ {
		residuals[i] = -1
		for j := 0; j < 4; j++ {
			weights.Set(i, j, -7)
		}
	}
	for _, workers := range []int{0, 1, 3, 16} {
		if err := SolveBatchInto(weights, residuals, states, psi, Gram(psi), workers); err != nil {
			t.Fatalf("SolveBatchInto(workers=%d): %v", workers, err)
		}
		if !mat.Equal(seqW, weights, 0) {
			t.Fatalf("workers=%d: weights differ from the single-worker batch", workers)
		}
		for i := range seqR {
			if residuals[i] != seqR[i] {
				t.Fatalf("workers=%d: residual %d differs", workers, i)
			}
		}
	}
}

func TestSolveBatchIntoBufferValidation(t *testing.T) {
	psi := randomBasis(t, 3, 10, 23)
	states := mat.MustNew(5, 10)
	good := func() (*mat.Dense, []float64) { return mat.MustNew(5, 3), make([]float64, 5) }

	w, res := good()
	if err := SolveBatchInto(w, res, mat.MustNew(5, 7), psi, Gram(psi), 1); !errors.Is(err, ErrShape) {
		t.Errorf("state/basis mismatch err = %v, want ErrShape", err)
	}
	_, res = good()
	if err := SolveBatchInto(mat.MustNew(4, 3), res, states, psi, Gram(psi), 1); err == nil || !strings.Contains(err.Error(), "weights buffer") {
		t.Errorf("short weights err = %v, want weights buffer error", err)
	}
	w, _ = good()
	if err := SolveBatchInto(w, make([]float64, 4), states, psi, Gram(psi), 1); err == nil || !strings.Contains(err.Error(), "residuals buffer") {
		t.Errorf("short residuals err = %v, want residuals buffer error", err)
	}
	w, res = good()
	if err := SolveBatchInto(mat.MustNew(5, 2), res, states, psi, Gram(psi), 1); err == nil || !strings.Contains(err.Error(), "weights buffer") {
		t.Errorf("narrow weights err = %v, want weights buffer error", err)
	}
	w, res = good()
	if err := SolveBatchInto(w, res, states, psi, mat.MustNew(4, 4), 1); !errors.Is(err, ErrShape) {
		t.Errorf("foreign gram err = %v, want ErrShape", err)
	}
}

// batchFixture builds n planted states over an r×m basis.
func batchFixture(t testing.TB, n, r, m int, seed int64) (states, psi *mat.Dense) {
	psi, err := mat.RandomPositive(r, m, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	states = mat.MustNew(n, m)
	for i := 0; i < n; i++ {
		w := make([]float64, r)
		for j := range w {
			if rng.Intn(2) == 0 {
				w[j] = rng.Float64() * 2
			}
		}
		row := mix(w, psi)
		for j := range row {
			row[j] += 0.1 * rng.Float64() // off the cone: a non-zero residual
		}
		states.SetRow(i, row)
	}
	return states, psi
}

// TestSolveBatchIntoThreshold: on both sides of minParallelRows — where the
// batch stays on the caller and where it fans out — every worker count gives
// the bits of row-by-row Solve.
func TestSolveBatchIntoThreshold(t *testing.T) {
	for _, n := range []int{1, minParallelRows - 1, minParallelRows, 3 * minParallelRows} {
		states, psi := batchFixture(t, n, 12, 43, int64(n))
		g := Gram(psi)
		for _, workers := range []int{0, 1, 2, 8} {
			weights, residuals := mat.MustNew(n, 12), make([]float64, n)
			if err := SolveBatchInto(weights, residuals, states, psi, g, workers); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				one, err := Solve(states.RawRow(i), psi, g)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(one.Residual) != math.Float64bits(residuals[i]) {
					t.Fatalf("n=%d workers=%d row %d: residual %v, Solve gives %v", n, workers, i, residuals[i], one.Residual)
				}
				for j, w := range one.W {
					if math.Float64bits(w) != math.Float64bits(weights.At(i, j)) {
						t.Fatalf("n=%d workers=%d row %d: W[%d] = %v, Solve gives %v", n, workers, i, j, weights.At(i, j), w)
					}
				}
			}
		}
	}
}

// TestSolveBatchIntoAllocs pins the batch's allocations at O(workers): one
// scratch set (7 allocations) and nothing else when it stays on the caller —
// a pool or a goroutine would each add to that — and the same count for 4
// rows as for minParallelRows−1.
func TestSolveBatchIntoAllocs(t *testing.T) {
	allocs := func(n, workers int) float64 {
		states, psi := batchFixture(t, n, 12, 43, 41)
		g := Gram(psi)
		weights, residuals := mat.MustNew(n, 12), make([]float64, n)
		return testing.AllocsPerRun(10, func() {
			if err := SolveBatchInto(weights, residuals, states, psi, g, workers); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4, -1), allocs(minParallelRows-1, -1)
	if small != large || small > 7 {
		t.Errorf("on the caller: %v allocations for 4 rows, %v for %d; want equal and ≤ 7", small, large, minParallelRows-1)
	}
	if a, b := allocs(4*minParallelRows, 2), allocs(16*minParallelRows, 2); a != b || a > 30 {
		t.Errorf("2 workers: %v allocations for %d rows, %v for %d; want equal and ≤ 30", a, 4*minParallelRows, b, 16*minParallelRows)
	}
}
