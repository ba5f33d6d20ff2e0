// Package nmf implements Non-negative Matrix Factorization with the
// Lee–Seung multiplicative update rules (NIPS 2001), the variant VN2 uses to
// compress network exception states (ICDCS 2014, Algorithm 1), plus the
// basis-sparsification step (Algorithm 2) and the rank-selection sweep the
// paper uses to pick the compression factor r (Fig. 3b).
//
// Given a non-negative n×m matrix E of exception states (rows are states,
// columns are metrics), Factorize finds W (n×r) and Ψ (r×m) such that
// E ≈ WΨ with all entries non-negative. Each row of Ψ is a root-cause
// vector; W holds per-state correlation strengths.
package nmf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/wsn-tools/vn2/internal/mat"
	"github.com/wsn-tools/vn2/internal/par"
)

// Errors returned by Factorize.
var (
	// ErrNegativeInput reports a factorization input containing negative
	// entries. NMF is only defined on non-negative data.
	ErrNegativeInput = errors.New("nmf: input matrix has negative entries")
	// ErrBadRank reports a rank that is not in [1, min(n,m)].
	ErrBadRank = errors.New("nmf: rank out of range")
)

// epsDiv guards multiplicative-update denominators against division by zero.
const epsDiv = 1e-12

// Config controls a factorization run.
type Config struct {
	// Rank is the compression factor r (number of root-cause vectors).
	Rank int
	// MaxIter bounds the number of multiplicative update sweeps.
	// Defaults to 200.
	MaxIter int
	// Tolerance stops iteration early when the relative improvement of the
	// objective between sweeps drops below it. Zero means the default, 1e-5;
	// a negative value disables early stopping.
	Tolerance float64
	// Seed seeds the random initialization of W and Ψ.
	Seed int64
	// Workers sizes the par.Pool that runs the sweeps' matrix products and
	// the per-row objective: 0 keeps them sequential, ≥1 fans out across
	// that many workers, negative uses GOMAXPROCS. Row partitioning is
	// static, writes are disjoint and every element folds in one fixed
	// order, so results are bit-identical for any value.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.MaxIter == 0 {
		c.MaxIter = 200
	}
	if c.Tolerance == 0 {
		c.Tolerance = 1e-5
	}
	return c
}

// Result holds the output of a factorization.
type Result struct {
	// W is the n×r correlation-strength matrix.
	W *mat.Dense
	// Psi is the r×m representative matrix; rows are root-cause vectors.
	Psi *mat.Dense
	// Iterations is the number of update sweeps performed.
	Iterations int
	// History records the objective value after each sweep.
	History []float64
	// Converged reports whether the tolerance criterion triggered before
	// MaxIter.
	Converged bool
}

// Accuracy returns the paper's approximation accuracy α = ‖E − WΨ‖_F for
// this factorization against the original matrix e (Definition 1).
func (r *Result) Accuracy(e *mat.Dense) (float64, error) {
	return Accuracy(e, r.W, r.Psi)
}

// Accuracy computes α = ‖E − WΨ‖_F (Definition 1 in the paper).
func Accuracy(e, w, psi *mat.Dense) (float64, error) {
	prod, err := mat.Mul(w, psi)
	if err != nil {
		return 0, fmt.Errorf("accuracy: %w", err)
	}
	return mat.FrobeniusDistance(e, prod)
}

// Factorize decomposes the non-negative matrix e into W·Ψ per the Lee–Seung
// multiplicative updates (Algorithm 1 in the paper). The run is
// deterministic for a fixed Config.Seed.
func Factorize(e *mat.Dense, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	n, m := e.Dims()
	if cfg.Rank < 1 || cfg.Rank > n || cfg.Rank > m {
		return nil, fmt.Errorf("%w: rank %d for %dx%d matrix", ErrBadRank, cfg.Rank, n, m)
	}
	if !e.NonNegative() {
		return nil, ErrNegativeInput
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	w, err := mat.RandomPositive(n, cfg.Rank, rng)
	if err != nil {
		return nil, fmt.Errorf("init W: %w", err)
	}
	psi, err := mat.RandomPositive(cfg.Rank, m, rng)
	if err != nil {
		return nil, fmt.Errorf("init Psi: %w", err)
	}

	return iterate(e, w, psi, cfg), nil
}

// iterate runs the multiplicative-update sweeps of Factorize and Resume on
// the starting factors w and psi, updating them in place, until cfg.MaxIter
// sweeps or the tolerance criterion.
func iterate(e, w, psi *mat.Dense, cfg Config) *Result {
	n, m := e.Dims()
	res := &Result{W: w, Psi: psi, History: make([]float64, 0, cfg.MaxIter)}
	st := newUpdateState(n, m, psi.Rows(), cfg.Workers)
	defer st.close()
	prev := math.Inf(1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		st.sweepEuclidean(e, w, psi)
		obj := objective(e, w, psi, st)
		res.History = append(res.History, obj)
		res.Iterations = iter + 1
		if cfg.Tolerance > 0 && !math.IsInf(prev, 1) && prev-obj <= cfg.Tolerance*math.Max(prev, 1) {
			res.Converged = true
			break
		}
		prev = obj
	}
	return res
}

// updateState holds the pool and the product matrices reused across sweeps,
// so a factorization allocates nothing after setup.
//
// Ownership rules: the products are written by the mat kernels in disjoint
// rows per pool worker; approx row k is owned by pool worker slot k for the
// duration of one dispatch; rowObj is written one disjoint row per index.
// close must be called when the factorization finishes.
type updateState struct {
	wtW     *mat.Dense // r×r Gram matrix WᵀW for the Ψ denominator
	psiPsiT *mat.Dense // r×r Gram matrix ΨΨᵀ for the W denominator
	num     *mat.Dense // r×m Ψ-update numerator WᵀE
	den     *mat.Dense // r×m Ψ-update denominator WᵀWΨ
	wNum    *mat.Dense // n×r W-update numerator EΨᵀ
	wDen    *mat.Dense // n×r W-update denominator W(ΨΨᵀ)ᵀ
	approx  *mat.Dense // workers×m: one WΨ row per pool worker
	rowObj  []float64  // length-n per-row objective partials
	pool    *par.Pool
}

func newUpdateState(n, m, r, workers int) *updateState {
	pool := par.NewPool(workers)
	return &updateState{
		wtW:     mat.MustNew(r, r),
		psiPsiT: mat.MustNew(r, r),
		num:     mat.MustNew(r, m),
		den:     mat.MustNew(r, m),
		wNum:    mat.MustNew(n, r),
		wDen:    mat.MustNew(n, r),
		approx:  mat.MustNew(pool.Workers(), m),
		rowObj:  make([]float64, n),
		pool:    pool,
	}
}

// close releases the pool's worker goroutines.
func (st *updateState) close() { st.pool.Close() }

// sweepEuclidean performs one pass of the Theorem 1 update rules:
//
//	Ψij ← Ψij (WᵀE)ij / (WᵀWΨ)ij
//	Wij ← Wij (EΨᵀ)ij / (WΨΨᵀ)ij
//
// Each half computes its numerator and denominator in full from the
// pre-update factors and only then updates (Jacobi within a half; the W half
// sees the new Ψ). The products are internal/mat's pooled kernels, which
// fold every element in one fixed order (i-, c- and j-ascending) for any row
// partition, so the sweep is bit-identical for any worker count. The W
// denominator is taken as W·(ΨΨᵀ)ᵀ so that it folds c-ascending over row a
// of ΨΨᵀ, exactly as the textbook loop reads column a.
func (st *updateState) sweepEuclidean(e, w, psi *mat.Dense) {
	mat.MulATBIntoOn(st.pool, st.wtW, w, w)
	mat.MulATBIntoOn(st.pool, st.num, w, e)
	mat.MulIntoOn(st.pool, st.den, st.wtW, psi)
	multiplicativeUpdate(psi, st.num, st.den)
	mat.MulABTIntoOn(st.pool, st.psiPsiT, psi, psi)
	mat.MulABTIntoOn(st.pool, st.wNum, e, psi)
	mat.MulABTIntoOn(st.pool, st.wDen, w, st.psiPsiT)
	multiplicativeUpdate(w, st.wNum, st.wDen)
}

// multiplicativeUpdate applies x ← x·(num/(den+epsDiv)) element-wise. The
// ratio is taken first: x·num/den would round differently.
func multiplicativeUpdate(x, num, den *mat.Dense) {
	for i := 0; i < x.Rows(); i++ {
		xRow, nRow, dRow := x.RawRow(i), num.RawRow(i), den.RawRow(i)
		for j := range xRow {
			xRow[j] *= nRow[j] / (dRow[j] + epsDiv)
		}
	}
}

// objective evaluates ‖E−WΨ‖_F without materializing WΨ: each row's
// contribution lands in st.rowObj[i] (disjoint writes), recomputing the
// approx row in per-worker scratch, and the partials are summed in fixed
// row order — never a partition-dependent reduction tree — so the value is
// bit-identical for any worker count.
func objective(e, w, psi *mat.Dense, st *updateState) float64 {
	n := e.Rows()
	st.pool.RunIndexed(n, func(worker, i0, i1 int) {
		st.rowObjectives(e, w, psi, worker, i0, i1)
	})
	var total float64
	for _, v := range st.rowObj {
		total += v
	}
	return math.Sqrt(total)
}

// rowObjectives fills st.rowObj for rows [i0, i1) with each row's squared
// residual norm.
func (st *updateState) rowObjectives(e, w, psi *mat.Dense, worker, i0, i1 int) {
	vec := st.approx.RawRow(worker)
	for i := i0; i < i1; i++ {
		eRow := e.RawRow(i)
		wRow := w.RawRow(i)
		for j := range vec {
			vec[j] = 0
		}
		for c, wv := range wRow {
			pRow := psi.RawRow(c)
			for j, pv := range pRow {
				vec[j] += wv * pv
			}
		}
		var d float64
		for j, ev := range eRow {
			diff := ev - vec[j]
			d += diff * diff
		}
		st.rowObj[i] = d
	}
}

// Sparsify implements Algorithm 2 (Basis Matrix Sparse Process): it
// normalizes W, then retains the largest-magnitude entries until the
// retained mass reaches keep·‖W‖₁ (the paper uses keep = 0.9, "the sparse
// matrix W̄ retains 90% information that W holds"), zeroing the rest. The
// input is not modified; the sparsified copy is returned.
func Sparsify(w *mat.Dense, keep float64) (*mat.Dense, error) {
	if keep <= 0 || keep > 1 {
		return nil, fmt.Errorf("nmf: sparsify keep fraction %v out of (0,1]", keep)
	}
	out := w.Clone()
	total := out.AbsSum()
	if total == 0 {
		return out, nil
	}
	// Normalize so the retained-mass criterion is scale free.
	n, m := out.Dims()
	type entry struct {
		i, j int
		v    float64
	}
	entries := make([]entry, 0, n*m)
	for i := 0; i < n; i++ {
		row := out.RawRow(i)
		for j := 0; j < m; j++ {
			entries = append(entries, entry{i, j, math.Abs(row[j])})
		}
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].v > entries[b].v })
	var acc float64
	cut := len(entries)
	for idx, en := range entries {
		acc += en.v
		if acc >= keep*total {
			cut = idx + 1
			break
		}
	}
	kept := make(map[[2]int]bool, cut)
	for _, en := range entries[:cut] {
		kept[[2]int{en.i, en.j}] = true
	}
	out.Apply(func(i, j int, v float64) float64 {
		if kept[[2]int{i, j}] {
			return v
		}
		return 0
	})
	return out, nil
}

// DefaultKeepFraction is the retained-information fraction from Algorithm 2.
const DefaultKeepFraction = 0.9
