package nmf

import (
	"math"
	"math/rand"
	"testing"

	"github.com/wsn-tools/vn2/internal/mat"
)

// The reference sweeps below are deliberately naive: textbook triple loops
// materializing every intermediate matrix, with the canonical accumulation
// orders (i-, c- and j-ascending per element). The sweep over internal/mat's
// blocked kernels and the per-row objective must match them bit for bit.

// refSweepEuclidean is the triple-loop Theorem 1 sweep.
func refSweepEuclidean(e, w, psi *mat.Dense) {
	n, m := e.Dims()
	r := psi.Rows()
	wtE := mat.MustNew(r, m)
	for a := 0; a < r; a++ {
		for j := 0; j < m; j++ {
			var s float64
			for i := 0; i < n; i++ {
				s += w.At(i, a) * e.At(i, j)
			}
			wtE.Set(a, j, s)
		}
	}
	wtW := mat.MustNew(r, r)
	for a := 0; a < r; a++ {
		for c := 0; c < r; c++ {
			var s float64
			for i := 0; i < n; i++ {
				s += w.At(i, a) * w.At(i, c)
			}
			wtW.Set(a, c, s)
		}
	}
	den := mat.MustNew(r, m)
	for a := 0; a < r; a++ {
		for j := 0; j < m; j++ {
			var s float64
			for c := 0; c < r; c++ {
				s += wtW.At(a, c) * psi.At(c, j)
			}
			den.Set(a, j, s)
		}
	}
	for a := 0; a < r; a++ {
		for j := 0; j < m; j++ {
			// The update rule multiplies by the ratio (matching `p *= num/den`
			// in the kernels), not (p*num)/den — the groupings round
			// differently.
			psi.Set(a, j, psi.At(a, j)*(wtE.At(a, j)/(den.At(a, j)+epsDiv)))
		}
	}
	ePsiT := mat.MustNew(n, r)
	for i := 0; i < n; i++ {
		for a := 0; a < r; a++ {
			var s float64
			for j := 0; j < m; j++ {
				s += e.At(i, j) * psi.At(a, j)
			}
			ePsiT.Set(i, a, s)
		}
	}
	psiPsiT := mat.MustNew(r, r)
	for a := 0; a < r; a++ {
		for c := 0; c < r; c++ {
			var s float64
			for j := 0; j < m; j++ {
				s += psi.At(a, j) * psi.At(c, j)
			}
			psiPsiT.Set(a, c, s)
		}
	}
	for i := 0; i < n; i++ {
		wDen := make([]float64, r)
		for a := 0; a < r; a++ {
			var s float64
			for c := 0; c < r; c++ {
				s += w.At(i, c) * psiPsiT.At(c, a)
			}
			wDen[a] = s
		}
		for a := 0; a < r; a++ {
			w.Set(i, a, w.At(i, a)*(ePsiT.At(i, a)/(wDen[a]+epsDiv)))
		}
	}
}

func randomFactors(t *testing.T, n, m, r int, seed int64) (e, w, psi *mat.Dense) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var err error
	if e, err = mat.RandomPositive(n, m, rng); err != nil {
		t.Fatal(err)
	}
	if w, err = mat.RandomPositive(n, r, rng); err != nil {
		t.Fatal(err)
	}
	if psi, err = mat.RandomPositive(r, m, rng); err != nil {
		t.Fatal(err)
	}
	return e, w, psi
}

func mustSameBits(t *testing.T, ctx string, got, want *mat.Dense) {
	t.Helper()
	for i := 0; i < got.Rows(); i++ {
		g, w := got.RawRow(i), want.RawRow(i)
		for j := range g {
			if g[j] != w[j] {
				t.Fatalf("%s: (%d,%d) = %v, want %v", ctx, i, j, g[j], w[j])
			}
		}
	}
}

func TestSweepEuclideanMatchesOracle(t *testing.T) {
	const n, m, r = 23, 17, 6
	e, w, psi := randomFactors(t, n, m, r, 91)
	wRef, psiRef := w.Clone(), psi.Clone()
	// Three chained sweeps so divergence would compound and surface.
	for s := 0; s < 3; s++ {
		refSweepEuclidean(e, wRef, psiRef)
	}
	st := newUpdateState(n, m, r)
	for s := 0; s < 3; s++ {
		st.sweepEuclidean(e, w, psi)
	}
	mustSameBits(t, "euclidean W", w, wRef)
	mustSameBits(t, "euclidean Psi", psi, psiRef)
}

func TestObjectiveMatchesOracle(t *testing.T) {
	const n, m, r = 21, 15, 4
	e, w, psi := randomFactors(t, n, m, r, 93)
	// Reference: per-row contributions summed in row order, approx row
	// accumulated c-ascending — the canonical orders of objective.
	var want float64
	for i := 0; i < n; i++ {
		var d float64
		for j := 0; j < m; j++ {
			var av float64
			for c := 0; c < r; c++ {
				av += w.At(i, c) * psi.At(c, j)
			}
			diff := e.At(i, j) - av
			d += diff * diff
		}
		want += d
	}
	want = math.Sqrt(want)
	if got := newUpdateState(n, m, r).objective(e, w, psi); got != want {
		t.Errorf("objective %v, want %v", got, want)
	}
}
