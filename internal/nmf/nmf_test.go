package nmf

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/wsn-tools/vn2/internal/mat"
)

// syntheticLowRank builds an exactly rank-r non-negative matrix so the
// factorization has a perfect solution to find.
func syntheticLowRank(t *testing.T, n, m, r int, seed int64) *mat.Dense {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w, err := mat.RandomPositive(n, r, rng)
	if err != nil {
		t.Fatalf("random W: %v", err)
	}
	h, err := mat.RandomPositive(r, m, rng)
	if err != nil {
		t.Fatalf("random H: %v", err)
	}
	e, err := mat.Mul(w, h)
	if err != nil {
		t.Fatalf("mul: %v", err)
	}
	return e
}

func TestFactorizeRecoversLowRank(t *testing.T) {
	e := syntheticLowRank(t, 40, 20, 3, 1)
	res, err := Factorize(e, Config{Rank: 3, MaxIter: 500, Tolerance: 1e-10, Seed: 7})
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	acc, err := res.Accuracy(e)
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}
	if rel := acc / e.Frobenius(); rel > 0.02 {
		t.Errorf("relative reconstruction error = %v, want < 0.02", rel)
	}
}

func TestFactorizeOutputsNonNegative(t *testing.T) {
	e := syntheticLowRank(t, 30, 15, 4, 2)
	res, err := Factorize(e, Config{Rank: 4, Seed: 3})
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	if !res.W.NonNegative() {
		t.Error("W has negative entries")
	}
	if !res.Psi.NonNegative() {
		t.Error("Psi has negative entries")
	}
}

// TestFactorizeMonotoneObjective checks Theorem 1: the Euclidean distance is
// non-increasing under the multiplicative update rules.
func TestFactorizeMonotoneObjective(t *testing.T) {
	e := syntheticLowRank(t, 25, 18, 5, 4)
	res, err := Factorize(e, Config{Rank: 5, MaxIter: 100, Tolerance: -1, Seed: 5})
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	for i := 1; i < len(res.History); i++ {
		// Allow a hair of floating-point slack.
		if res.History[i] > res.History[i-1]*(1+1e-9)+1e-9 {
			t.Fatalf("objective increased at sweep %d: %v -> %v", i, res.History[i-1], res.History[i])
		}
	}
}

func TestFactorizeDeterministic(t *testing.T) {
	e := syntheticLowRank(t, 20, 10, 3, 9)
	cfg := Config{Rank: 3, MaxIter: 50, Seed: 11}
	a, err := Factorize(e, cfg)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	b, err := Factorize(e, cfg)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	if !mat.Equal(a.W, b.W, 0) || !mat.Equal(a.Psi, b.Psi, 0) {
		t.Error("same seed produced different factorization")
	}
}

func TestFactorizeSeedMatters(t *testing.T) {
	e := syntheticLowRank(t, 20, 10, 3, 9)
	a, _ := Factorize(e, Config{Rank: 3, MaxIter: 5, Seed: 1})
	b, _ := Factorize(e, Config{Rank: 3, MaxIter: 5, Seed: 2})
	if mat.Equal(a.W, b.W, 0) {
		t.Error("different seeds produced identical W after 5 sweeps")
	}
}

func TestFactorizeRejectsNegativeInput(t *testing.T) {
	e, _ := mat.FromRows([][]float64{{1, -2}, {3, 4}})
	if _, err := Factorize(e, Config{Rank: 1}); !errors.Is(err, ErrNegativeInput) {
		t.Errorf("err = %v, want ErrNegativeInput", err)
	}
}

func TestFactorizeRejectsBadRank(t *testing.T) {
	e := syntheticLowRank(t, 5, 4, 2, 1)
	for _, r := range []int{0, -1, 5, 100} {
		if _, err := Factorize(e, Config{Rank: r}); !errors.Is(err, ErrBadRank) {
			t.Errorf("rank %d err = %v, want ErrBadRank", r, err)
		}
	}
}

func TestFactorizeConvergesEarly(t *testing.T) {
	e := syntheticLowRank(t, 30, 15, 2, 3)
	res, err := Factorize(e, Config{Rank: 2, MaxIter: 5000, Tolerance: 1e-8, Seed: 1})
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	if !res.Converged {
		t.Error("expected convergence before 5000 sweeps")
	}
	if res.Iterations >= 5000 {
		t.Errorf("Iterations = %d, expected early stop", res.Iterations)
	}
}

func TestSparsifyRetainsMass(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	w, _ := mat.RandomPositive(30, 10, rng)
	sparse, err := Sparsify(w, 0.9)
	if err != nil {
		t.Fatalf("Sparsify: %v", err)
	}
	retained := sparse.AbsSum() / w.AbsSum()
	if retained < 0.9 {
		t.Errorf("retained mass = %v, want >= 0.9", retained)
	}
	if sparse.CountNonZero(0) >= w.CountNonZero(0) {
		t.Error("Sparsify did not zero any entries on random input")
	}
}

func TestSparsifyDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w, _ := mat.RandomPositive(10, 5, rng)
	before := w.Clone()
	if _, err := Sparsify(w, 0.5); err != nil {
		t.Fatalf("Sparsify: %v", err)
	}
	if !mat.Equal(w, before, 0) {
		t.Error("Sparsify mutated its input")
	}
}

func TestSparsifyKeepOne(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	w, _ := mat.RandomPositive(5, 5, rng)
	sparse, err := Sparsify(w, 1.0)
	if err != nil {
		t.Fatalf("Sparsify: %v", err)
	}
	if !mat.Equal(w, sparse, 0) {
		t.Error("keep=1.0 should retain the full matrix")
	}
}

func TestSparsifyRejectsBadKeep(t *testing.T) {
	w := mat.MustNew(2, 2)
	for _, k := range []float64{0, -0.5, 1.5} {
		if _, err := Sparsify(w, k); err == nil {
			t.Errorf("Sparsify(keep=%v) accepted invalid fraction", k)
		}
	}
}

func TestSparsifyZeroMatrix(t *testing.T) {
	w := mat.MustNew(3, 3)
	sparse, err := Sparsify(w, 0.9)
	if err != nil {
		t.Fatalf("Sparsify: %v", err)
	}
	if sparse.AbsSum() != 0 {
		t.Error("sparsified zero matrix should be zero")
	}
}

func TestSparsifyKeepsLargestEntries(t *testing.T) {
	w, _ := mat.FromRows([][]float64{{10, 1}, {8, 0.5}})
	sparse, err := Sparsify(w, 0.9)
	if err != nil {
		t.Fatalf("Sparsify: %v", err)
	}
	// 10+8 = 18 of 19.5 total = 92% ≥ 90%: small entries must be dropped.
	if sparse.At(0, 0) != 10 || sparse.At(1, 0) != 8 {
		t.Error("large entries were not retained")
	}
	if sparse.At(0, 1) != 0 || sparse.At(1, 1) != 0 {
		t.Error("small entries were not zeroed")
	}
}

func TestSweepRanks(t *testing.T) {
	e := syntheticLowRank(t, 40, 20, 6, 21)
	points, err := SweepRanks(e, SweepConfig{
		MinRank: 2, MaxRank: 10, Step: 2,
		Base: Config{MaxIter: 120, Seed: 5},
	})
	if err != nil {
		t.Fatalf("SweepRanks: %v", err)
	}
	if len(points) != 5 {
		t.Fatalf("got %d points, want 5", len(points))
	}
	// Accuracy (reconstruction error) should broadly improve with rank on a
	// rank-6 matrix: the last point must beat the first.
	if points[len(points)-1].Accuracy >= points[0].Accuracy {
		t.Errorf("accuracy did not improve with rank: first=%v last=%v",
			points[0].Accuracy, points[len(points)-1].Accuracy)
	}
	for _, p := range points {
		if p.SparseAccuracy < p.Accuracy-1e-9 {
			t.Errorf("rank %d: sparse accuracy %v better than original %v",
				p.Rank, p.SparseAccuracy, p.Accuracy)
		}
	}
}

func TestSweepRanksBadRange(t *testing.T) {
	e := syntheticLowRank(t, 10, 10, 2, 1)
	if _, err := SweepRanks(e, SweepConfig{MinRank: 5, MaxRank: 2}); !errors.Is(err, ErrBadRank) {
		t.Errorf("err = %v, want ErrBadRank", err)
	}
	if _, err := SweepRanks(e, SweepConfig{MinRank: 0, MaxRank: 3}); !errors.Is(err, ErrBadRank) {
		t.Errorf("err = %v, want ErrBadRank", err)
	}
}

func TestSelectRank(t *testing.T) {
	points := []RankPoint{
		{Rank: 5, Accuracy: 2.0, SparseAccuracy: 2.05},
		{Rank: 15, Accuracy: 1.0, SparseAccuracy: 1.1},
		{Rank: 25, Accuracy: 0.9, SparseAccuracy: 1.0},
		{Rank: 35, Accuracy: 0.85, SparseAccuracy: 1.8},
	}
	r, err := SelectRank(points)
	if err != nil {
		t.Fatalf("SelectRank: %v", err)
	}
	// 5 has terrible accuracy, 35 has a huge sparsity gap; the middle wins.
	if r != 15 && r != 25 {
		t.Errorf("SelectRank = %d, want a middle rank (15 or 25)", r)
	}
}

func TestSelectRankEmpty(t *testing.T) {
	if _, err := SelectRank(nil); !errors.Is(err, ErrBadRank) {
		t.Errorf("err = %v, want ErrBadRank", err)
	}
}

func TestAccuracyDimensionError(t *testing.T) {
	e := mat.MustNew(3, 3)
	if _, err := Accuracy(e, mat.MustNew(3, 2), mat.MustNew(3, 3)); err == nil {
		t.Error("Accuracy accepted mismatched factors")
	}
}

// Property: for any non-negative matrix, factorization yields non-negative
// factors and a final objective no worse than the first sweep's.
func TestPropertyFactorizeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		m := 4 + rng.Intn(10)
		e, err := mat.Random(n, m, 0, 5, rng)
		if err != nil {
			return false
		}
		res, err := Factorize(e, Config{Rank: 2, MaxIter: 30, Seed: seed})
		if err != nil {
			return false
		}
		if !res.W.NonNegative() || !res.Psi.NonNegative() {
			return false
		}
		last := res.History[len(res.History)-1]
		return last <= res.History[0]*(1+1e-9)+1e-9 && !math.IsNaN(last)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: sparsification never increases the entrywise mass and keeps at
// least the requested fraction.
func TestPropertySparsifyMass(t *testing.T) {
	f := func(seed int64, keepRaw uint8) bool {
		keep := 0.1 + 0.9*float64(keepRaw)/255.0
		rng := rand.New(rand.NewSource(seed))
		w, err := mat.RandomPositive(3+rng.Intn(10), 3+rng.Intn(10), rng)
		if err != nil {
			return false
		}
		s, err := Sparsify(w, keep)
		if err != nil {
			return false
		}
		ratio := s.AbsSum() / w.AbsSum()
		return ratio >= keep-1e-12 && ratio <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSelectRankElbowMatchesPaperShape(t *testing.T) {
	// The Fig. 3b curve measured on the full CitySee-style trace: steep
	// descent to r=15, plateau after r=25. The elbow rule must land in the
	// paper's neighborhood (r=25), not run to the sweep end.
	points := []RankPoint{
		{Rank: 5, Accuracy: 313.1, SparseAccuracy: 334.3},
		{Rank: 10, Accuracy: 170.4, SparseAccuracy: 206.6},
		{Rank: 15, Accuracy: 144.7, SparseAccuracy: 180.4},
		{Rank: 20, Accuracy: 138.1, SparseAccuracy: 174.7},
		{Rank: 25, Accuracy: 129.9, SparseAccuracy: 167.8},
		{Rank: 30, Accuracy: 126.4, SparseAccuracy: 158.7},
		{Rank: 35, Accuracy: 121.5, SparseAccuracy: 152.8},
		{Rank: 40, Accuracy: 117.4, SparseAccuracy: 148.7},
	}
	r, err := SelectRank(points)
	if err != nil {
		t.Fatalf("SelectRank: %v", err)
	}
	if r != 25 {
		t.Errorf("SelectRank = %d, want 25 (the paper's choice)", r)
	}
}

func TestSelectRankFlatSweep(t *testing.T) {
	points := []RankPoint{
		{Rank: 5, Accuracy: 10},
		{Rank: 10, Accuracy: 10},
		{Rank: 15, Accuracy: 11},
	}
	r, err := SelectRank(points)
	if err != nil {
		t.Fatalf("SelectRank: %v", err)
	}
	if r != 5 {
		t.Errorf("flat sweep SelectRank = %d, want smallest rank 5", r)
	}
}
