// Package nnls solves the non-negative least-squares problem at the heart of
// VN2's inference step (Problem 3 in the paper):
//
//	argmin_w ‖s − wΨ‖²  subject to w ≥ 0
//
// where s is a 1×m node-state vector, Ψ is the r×m representative matrix and
// w is the 1×r correlation-strength vector. The solver is Lawson–Hanson's
// active-set method on the normal equations (G = ΨΨᵀ, b = Ψsᵀ): it stops at
// the KKT point, with exact zeros off the support, a function of (Ψ, s) alone.
package nnls

import (
	"errors"
	"fmt"
	"math"

	"github.com/wsn-tools/vn2/internal/mat"
)

// ErrShape reports a state, basis and Gram matrix whose dimensions disagree.
var ErrShape = errors.New("nnls: state length does not match basis columns")

const (
	// roundTol separates a quantity from the rounding of a zero, three times.
	// A cause is admitted only while its dual b_j − (Gw)_j exceeds
	// roundTol·‖b‖∞. A candidate whose squared Cholesky pivot (what of G_jj
	// the passive causes do not explain) is ≤ roundTol·G_jj is a zero row of
	// Ψ or collinear with the passive rows: refused, the singular-pivot rule.
	// A passive weight ≤ roundTol·‖z‖∞ is a zero: a planted 0 is not 1e-17.
	roundTol = 1e-10
	// solvesPerCause bounds a solve at solvesPerCause·r passive solves;
	// Lawson–Hanson needs about one per cause on the support.
	solvesPerCause = 3
)

// Result is a solution: W ≥ 0 (length r), ‖s − wΨ‖₂ there, passive solves taken.
type Result struct {
	W          []float64
	Residual   float64
	Iterations int
}

// Gram returns G = ΨΨᵀ (r×r), the only form in which the solver reads Ψ
// until the final residual. Whoever owns a basis builds it once.
func Gram(psi *mat.Dense) *mat.Dense {
	g := mat.MustNew(psi.Rows(), psi.Rows())
	mat.MulABTInto(g, psi, psi)
	return g
}

// Solve computes argmin_w ‖s − wΨ‖² with w ≥ 0. gram must be Gram(psi).
func Solve(s []float64, psi, gram *mat.Dense) (*Result, error) {
	r, m := psi.Dims()
	if len(s) != m || gram.Rows() != r || gram.Cols() != r {
		return nil, fmt.Errorf("%w: state %d, gram %dx%d, basis %dx%d", ErrShape, len(s), gram.Rows(), gram.Cols(), r, m)
	}
	res := &Result{W: make([]float64, r)}
	res.Residual, res.Iterations = solveInto(res.W, s, psi, gram, newSolveScratch(r, m))
	return res, nil
}

// solveScratch is the reusable working set of one solver goroutine.
type solveScratch struct {
	b       []float64 // length r: Ψsᵀ for the current row
	z       []float64 // length r: the passive block's solution, in passive order
	chol    []float64 // r×r: row k is the Cholesky row of the k-th passive cause
	passive []int     // the passive set, in admission order
	skip    []bool    // length r: candidates refused in the current outer step
	diff    []float64 // length m: s − wΨ for the residual
}

func newSolveScratch(r, m int) *solveScratch {
	return &solveScratch{
		b: make([]float64, r), z: make([]float64, r), chol: make([]float64, r*r),
		passive: make([]int, 0, r), skip: make([]bool, r), diff: make([]float64, m),
	}
}

// push appends cause j to the passive set and a row to the Cholesky factor of
// G's passive block — unless j fails the singular-pivot rule, as a NaN or
// infinite pivot also does: then it reports false and the set is as it was.
func (sc *solveScratch) push(g *mat.Dense, j int) bool {
	r, k := len(sc.b), len(sc.passive)
	gRow, row := g.RawRow(j), sc.chol[k*r:k*r+k+1]
	pivot := gRow[j]
	for i, pi := range sc.passive {
		li := sc.chol[i*r : i*r+i+1]
		sum := gRow[pi]
		for t := 0; t < i; t++ {
			sum -= row[t] * li[t]
		}
		row[i] = sum / li[i]
		pivot -= row[i] * row[i]
	}
	if !(pivot > roundTol*gRow[j]) {
		return false
	}
	row[k] = math.Sqrt(pivot)
	sc.passive = append(sc.passive, j)
	return true
}

// solvePassive solves G_PP z = b_P through the factor (L y = b_P, then
// Lᵀ z = y, both in z) and returns rounded zeros as zeros.
func (sc *solveScratch) solvePassive() {
	r, z := len(sc.b), sc.z[:len(sc.passive)]
	for k, pk := range sc.passive {
		row := sc.chol[k*r : k*r+k+1]
		sum := sc.b[pk]
		for t := 0; t < k; t++ {
			sum -= row[t] * z[t]
		}
		z[k] = sum / row[k]
	}
	var zMax float64
	for k := len(z) - 1; k >= 0; k-- {
		z[k] /= sc.chol[k*r+k]
		for t := 0; t < k; t++ {
			z[t] -= sc.chol[k*r+t] * z[k]
		}
		zMax = math.Max(zMax, math.Abs(z[k]))
	}
	for k, v := range z {
		if v > 0 && v <= roundTol*zMax {
			z[k] = 0
		}
	}
}

// solveInto runs Lawson–Hanson from w = 0 into w (length r, overwritten);
// g must be ΨΨᵀ, sc is caller-owned. It returns ‖s − wΨ‖ and the number of
// passive solves. Every iterate it can stop on is feasible (w ≥ 0) and, in
// exact arithmetic, no worse than the one before: any exit returns the best.
func solveInto(w, s []float64, psi, g *mat.Dense, sc *solveScratch) (float64, int) {
	r, b, z := len(w), sc.b, sc.z
	var bMax float64
	for i := range w {
		w[i], b[i] = 0, 0
		for j, pv := range psi.RawRow(i) {
			b[i] += pv * s[j]
		}
		bMax = math.Max(bMax, math.Abs(b[i]))
	}
	sNorm := residualWith(sc.diff, s, w, psi) // w = 0: ‖s‖
	// A zero state has b = 0 and admits nothing: w = 0. A NaN or Inf in s
	// makes tol NaN or infinite, and `d > tol` fails for every candidate.
	tol := roundTol * bMax
	sc.passive = sc.passive[:0]
	solves := 0
outer:
	for {
		// Admit the most violated dual among the causes at zero; ties go to
		// the lowest index (strict >). Between outer steps a cause is
		// passive exactly when its weight is positive.
		clear(sc.skip)
		for {
			best, bestD := -1, tol
			for j := 0; j < r; j++ {
				if w[j] > 0 || sc.skip[j] {
					continue
				}
				d, gRow := b[j], g.RawRow(j)
				for _, k := range sc.passive {
					d -= gRow[k] * w[k]
				}
				if d > bestD {
					best, bestD = j, d
				}
			}
			// No dual above tolerance: the KKT point. Or the hard bound, past
			// which the current iterate stands.
			if best < 0 || solves >= solvesPerCause*r {
				break outer
			}
			// A refused candidate — a singular pivot, or a newcomer solved to
			// a weight ≤ 0 (exactly it is dual/pivot > 0: rounding) — sits
			// out the rest of this outer step and the next best is tried.
			if sc.push(g, best) {
				sc.solvePassive()
				solves++
				if z[len(sc.passive)-1] > 0 {
					break
				}
				sc.passive = sc.passive[:len(sc.passive)-1]
			}
			sc.skip[best] = true
		}
		// Walk from w towards z; while a passive weight would go ≤ 0, stop
		// at the boundary, drop what reached it, and solve the smaller block.
		for {
			alpha, out := math.Inf(1), -1
			for k, i := range sc.passive {
				if !(z[k] > 0) {
					if a := w[i] / (w[i] - z[k]); a < alpha {
						alpha, out = a, i
					}
				}
			}
			if out < 0 {
				for k, i := range sc.passive {
					w[i] = z[k]
				}
				break
			}
			for k, i := range sc.passive {
				w[i] += alpha * (z[k] - w[i])
			}
			// The blocking cause leaves with an exact zero whatever rounding
			// left in it: each pass shrinks the set, the walk ends in r.
			w[out] = 0
			old := sc.passive
			sc.passive = old[:0]
			for _, i := range old {
				if !(w[i] > 0 && sc.push(g, i)) {
					w[i] = 0
				}
			}
			if solves >= solvesPerCause*r {
				break outer
			}
			sc.solvePassive()
			solves++
		}
	}
	// The residual is computed once, here. One that is not a finite number
	// ≤ ‖s‖ (an overflow, a NaN that got through) loses to the feasible w = 0.
	res := residualWith(sc.diff, s, w, psi)
	if !(res <= sNorm && res <= math.MaxFloat64) {
		clear(w)
		res = sNorm
	}
	return res, solves
}

// residualWith computes ‖s − wΨ‖₂ through the scratch difference vector: one
// pass per basis row on the support, rows then columns ascending.
func residualWith(diff, s, w []float64, psi *mat.Dense) float64 {
	copy(diff, s)
	for i, wv := range w {
		if wv == 0 {
			continue
		}
		for j, pv := range psi.RawRow(i) {
			diff[j] -= wv * pv
		}
	}
	var sum float64
	for _, d := range diff {
		sum += d * d
	}
	return math.Sqrt(sum)
}
