package nnls

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/wsn-tools/vn2/internal/mat"
)

func randomBasis(t *testing.T, r, m int, seed int64) *mat.Dense {
	t.Helper()
	psi, err := mat.RandomPositive(r, m, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("random basis: %v", err)
	}
	return psi
}

// solve is Solve on a Gram matrix built for the call.
func solve(s []float64, psi *mat.Dense) (*Result, error) {
	return Solve(s, psi, Gram(psi))
}

// solveBatch is SolveBatchInto on fresh buffers and a Gram matrix built for
// the call.
func solveBatch(states, psi *mat.Dense, workers int) (*mat.Dense, []float64, error) {
	weights, residuals := mat.MustNew(states.Rows(), psi.Rows()), make([]float64, states.Rows())
	if err := SolveBatchInto(weights, residuals, states, psi, Gram(psi), workers); err != nil {
		return nil, nil, err
	}
	return weights, residuals, nil
}

// mix produces s = wΨ for a known non-negative w.
func mix(w []float64, psi *mat.Dense) []float64 {
	r, m := psi.Dims()
	s := make([]float64, m)
	for j := 0; j < m; j++ {
		for i := 0; i < r; i++ {
			s[j] += w[i] * psi.At(i, j)
		}
	}
	return s
}

// TestSolveRecoversExactMix: a planted sparse non-negative mix comes back
// with its true zeros as exact zeros (==, not < 1e-6) and its weights to
// rounding, at several shapes including a support of one.
func TestSolveRecoversExactMix(t *testing.T) {
	for _, tc := range []struct {
		r, m int
		want []float64
	}{
		{4, 20, []float64{2, 0, 0.5, 0}},
		{5, 25, []float64{0, 1.5, 0, 3, 0.25}},
		{12, 43, []float64{0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{12, 43, []float64{0.1, 0, 0, 40, 0, 0, 3, 0, 0, 0, 1e-3, 0}},
		{25, 43, append(make([]float64, 20), 1, 0, 2, 0, 3)},
	} {
		psi := randomBasis(t, tc.r, tc.m, int64(tc.r))
		s := mix(tc.want, psi)
		res, err := solve(s, psi)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if res.Residual > 1e-12*norm(s) {
			t.Errorf("r=%d: residual = %v, want < 1e-12 of ‖s‖", tc.r, res.Residual)
		}
		for i, want := range tc.want {
			if want == 0 && res.W[i] != 0 {
				t.Errorf("r=%d: W[%d] = %v, want an exact zero", tc.r, i, res.W[i])
			}
			if math.Abs(res.W[i]-want) > 1e-10*(1+want) {
				t.Errorf("r=%d: W[%d] = %v, want %v", tc.r, i, res.W[i], want)
			}
		}
	}
}

func norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func TestSolveZeroState(t *testing.T) {
	psi := randomBasis(t, 3, 10, 2)
	s := make([]float64, 10)
	res, err := solve(s, psi)
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual != 0 || res.Iterations != 0 {
		t.Errorf("zero state: residual %v after %d solves, want 0 after 0", res.Residual, res.Iterations)
	}
	for i, w := range res.W {
		if w != 0 {
			t.Errorf("W[%d] = %v, want 0", i, w)
		}
	}
}

func TestSolveShapeMismatch(t *testing.T) {
	psi := randomBasis(t, 3, 10, 3)
	if _, err := solve(make([]float64, 5), psi); !errors.Is(err, ErrShape) {
		t.Errorf("err = %v, want ErrShape", err)
	}
	if _, err := Solve(make([]float64, 10), psi, mat.MustNew(2, 2)); !errors.Is(err, ErrShape) {
		t.Errorf("foreign gram: err = %v, want ErrShape", err)
	}
}

func TestSolveNonNegativeOnAdversarialState(t *testing.T) {
	// A state with negative entries cannot be represented exactly by a
	// non-negative combination of a positive basis; the solver must still
	// return w ≥ 0.
	psi := randomBasis(t, 3, 8, 4)
	s := []float64{-5, -3, -1, 0, 1, -2, -4, -6}
	res, err := solve(s, psi)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range res.W {
		if w < 0 {
			t.Errorf("W[%d] = %v < 0", i, w)
		}
	}
}

func TestSolveDeterministic(t *testing.T) {
	psi := randomBasis(t, 4, 12, 6)
	s := mix([]float64{1, 2, 0, 0.5}, psi)
	a, _ := solve(s, psi)
	b, _ := solve(s, psi)
	for i := range a.W {
		if a.W[i] != b.W[i] {
			t.Fatal("Solve is not deterministic")
		}
	}
}

func TestSolveBatch(t *testing.T) {
	psi := randomBasis(t, 3, 10, 7)
	states := mat.MustNew(4, 10)
	wants := [][]float64{
		{1, 0, 0},
		{0, 2, 0},
		{0, 0, 3},
		{1, 1, 1},
	}
	for i, w := range wants {
		states.SetRow(i, mix(w, psi))
	}
	weights, residuals, err := solveBatch(states, psi, 1)
	if err != nil {
		t.Fatalf("solveBatch: %v", err)
	}
	if weights.Rows() != 4 || weights.Cols() != 3 {
		t.Fatalf("weights shape %dx%d, want 4x3", weights.Rows(), weights.Cols())
	}
	for i, want := range wants {
		if residuals[i] > 1e-12 {
			t.Errorf("row %d residual = %v", i, residuals[i])
		}
		for j, wv := range want {
			if math.Abs(weights.At(i, j)-wv) > 1e-12 {
				t.Errorf("row %d: W[%d] = %v, want %v", i, j, weights.At(i, j), wv)
			}
		}
	}
}

func TestSolveBatchShapeMismatch(t *testing.T) {
	psi := randomBasis(t, 3, 10, 8)
	if _, _, err := solveBatch(mat.MustNew(2, 7), psi, 1); !errors.Is(err, ErrShape) {
		t.Errorf("err = %v, want ErrShape", err)
	}
}

// Property: for any positive basis and any non-negative mixing weights, the
// solver returns non-negative w with residual below the trivial w=0 residual.
func TestPropertySolveImprovesOverZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 2 + rng.Intn(4)
		m := r + 2 + rng.Intn(10)
		psi, err := mat.RandomPositive(r, m, rng)
		if err != nil {
			return false
		}
		w := make([]float64, r)
		for i := range w {
			w[i] = rng.Float64() * 3
		}
		s := mix(w, psi)
		zeroResidual := norm(s)
		if zeroResidual == 0 {
			return true
		}
		res, err := solve(s, psi)
		if err != nil {
			return false
		}
		for _, wi := range res.W {
			if wi < 0 || math.IsNaN(wi) {
				return false
			}
		}
		return res.Residual <= zeroResidual
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSolveBatchParallelMatchesSequential(t *testing.T) {
	psi := randomBasis(t, 4, 15, 9)
	rng := rand.New(rand.NewSource(10))
	states := mat.MustNew(40, 15)
	for i := 0; i < 40; i++ {
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
	for _, workers := range []int{0, 1, 2, 3, 4, runtime.GOMAXPROCS(0), 64} {
		parW, parR, err := solveBatch(states, psi, workers)
		if err != nil {
			t.Fatalf("solveBatch(workers=%d): %v", workers, err)
		}
		if !mat.Equal(seqW, parW, 0) {
			t.Fatalf("workers=%d: weights differ from sequential", workers)
		}
		for i := range seqR {
			if seqR[i] != parR[i] {
				t.Fatalf("workers=%d: residual %d differs", workers, i)
			}
		}
	}
}

func TestSolveBatchParallelShapeMismatch(t *testing.T) {
	psi := randomBasis(t, 3, 10, 11)
	if _, _, err := solveBatch(mat.MustNew(5, 7), psi, 2); !errors.Is(err, ErrShape) {
		t.Errorf("err = %v, want ErrShape", err)
	}
}

// checkFeasible asserts what every exit of the solver owes its caller:
// finite w ≥ 0, a residual no worse than w = 0's when ‖s‖ is a number, and no
// more passive solves than the bound.
func checkFeasible(t *testing.T, name string, res *Result, s []float64) {
	t.Helper()
	for i, w := range res.W {
		if !(w >= 0) || math.IsInf(w, 0) {
			t.Errorf("%s: W[%d] = %v", name, i, w)
		}
	}
	if sNorm := norm(s); !math.IsNaN(sNorm) && !(res.Residual <= sNorm) {
		t.Errorf("%s: residual %v above ‖s‖ = %v", name, res.Residual, sNorm)
	}
	if res.Iterations > solvesPerCause*len(res.W) {
		t.Errorf("%s: %d passive solves, bound %d", name, res.Iterations, solvesPerCause*len(res.W))
	}
}

// TestSolveRankDeficientBasis: a duplicated row and a zero row make G
// singular. The singular-pivot rule gives the copy's weight to the lower
// index, leaves the zero row at zero, and the fit is the one the basis
// without them gets.
func TestSolveRankDeficientBasis(t *testing.T) {
	base := randomBasis(t, 4, 20, 31)
	psi := mat.MustNew(6, 20)
	for i := 0; i < 4; i++ {
		psi.SetRow(i, base.Row(i))
	}
	psi.SetRow(4, base.Row(1)) // row 4 duplicates row 1; row 5 stays zero
	s := mix([]float64{1, 2, 0, 0.5, 3, 9}, psi)
	res, err := solve(s, psi)
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, "duplicate+zero", res, s)
	for i, want := range []float64{1, 5, 0, 0.5, 0, 0} {
		if math.Abs(res.W[i]-want) > 1e-9 || (want == 0) != (res.W[i] == 0) {
			t.Errorf("W[%d] = %v, want %v", i, res.W[i], want)
		}
	}
	if res.Residual > 1e-12*norm(s) {
		t.Errorf("residual = %v on a state inside the cone", res.Residual)
	}
	ref, err := solve(s, base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.W {
		if ref.W[i] != res.W[i] {
			t.Errorf("W[%d] = %v, the full-rank basis gives %v", i, res.W[i], ref.W[i])
		}
	}
}

// TestSolveMoreCausesThanMetrics: with r > m the Gram matrix cannot have
// full rank; the solver still stops, feasibly, on a support no larger than
// the rank.
func TestSolveMoreCausesThanMetrics(t *testing.T) {
	psi := randomBasis(t, 9, 4, 32)
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 50; trial++ {
		s := make([]float64, 4)
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		res, err := solve(s, psi)
		if err != nil {
			t.Fatal(err)
		}
		checkFeasible(t, "r>m", res, s)
		support := 0
		for _, w := range res.W {
			if w > 0 {
				support++
			}
		}
		if support > 4 {
			t.Errorf("trial %d: %d causes on the support of a rank-4 basis", trial, support)
		}
	}
}

// TestSolveNonFiniteState: a NaN or Inf in s must end the solve — at w = 0 —
// not spin it.
func TestSolveNonFiniteState(t *testing.T) {
	psi := randomBasis(t, 5, 12, 34)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := mix([]float64{1, 0, 2, 0, 3}, psi)
		s[7] = bad
		res, err := solve(s, psi)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range res.W {
			if w != 0 {
				t.Errorf("s[7] = %v: W[%d] = %v, want 0", bad, i, w)
			}
		}
		if res.Iterations != 0 {
			t.Errorf("s[7] = %v: %d passive solves, want 0", bad, res.Iterations)
		}
	}
}

// TestSolveRefusedCandidates drives the two refusals of an outer step with
// the problems of testdata/fuzz/FuzzSolve/{collinear,scaled}: a candidate
// within 1e-6 rad of a passive row fails the singular-pivot rule, and one
// that solves to 1e-12 of the largest weight is returned as a zero. Either
// way the candidate sits out, nothing else is above tolerance, and the
// solve ends on the iterate it had.
func TestSolveRefusedCandidates(t *testing.T) {
	for _, tc := range []struct {
		name   string
		psi    [][]float64
		s      []float64
		want   []float64
		solves int
	}{
		{"collinear", [][]float64{{1e3, 1e-3, 0}, {1125, 0, 0}}, []float64{1, 1, 0}, []float64{0, 1.0 / 1125}, 1},
		{"scaled", [][]float64{{1e-3, 0, 0}, {0, 1e3, 0}}, []float64{1e3, 1e-3, 0}, []float64{1e6, 0}, 2},
	} {
		psi, err := mat.FromRows(tc.psi)
		if err != nil {
			t.Fatal(err)
		}
		res, err := solve(tc.s, psi)
		if err != nil {
			t.Fatal(err)
		}
		checkFeasible(t, tc.name, res, tc.s)
		for i, want := range tc.want {
			if math.Abs(res.W[i]-want) > 1e-12*want || (want == 0) != (res.W[i] == 0) {
				t.Errorf("%s: W[%d] = %v, want %v", tc.name, i, res.W[i], want)
			}
		}
		if res.Iterations != tc.solves {
			t.Errorf("%s: %d passive solves, want %d", tc.name, res.Iterations, tc.solves)
		}
	}
}
