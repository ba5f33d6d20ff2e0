package nnls

import (
	"math"
	"testing"

	"github.com/wsn-tools/vn2/internal/mat"
)

// fuzzValues is what the low nibble of a fuzz byte selects: zeros, ordinary
// magnitudes, magnitudes whose squares under- or overflow, and non-finite
// values. Equal bytes give equal entries, so duplicate and zero rows of Ψ
// are a few mutations away. Bit 4 negates, bits 5–7 scale by 1 + k/8.
var fuzzValues = [16]float64{
	0, 1, 0.5, 2, 3, 1e-3, 1e3, 1e-160, 1e160, 1e-300, 1e300,
	math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
}

func fuzzValue(b byte) float64 {
	v := fuzzValues[b&0x0f] * (1 + float64(b>>5)/8)
	if b&0x10 != 0 {
		v = -v
	}
	return v
}

// fuzzProblem decodes bytes into a small problem: r ∈ [1,6], m ∈ [1,8], then
// Ψ row by row, then s; bytes that are not there read as zero.
func fuzzProblem(data []byte) (psi *mat.Dense, s []float64) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	r, m := 1+int(next()%6), 1+int(next()%8)
	psi = mat.MustNew(r, m)
	for i := 0; i < r; i++ {
		for j := 0; j < m; j++ {
			psi.Set(i, j, fuzzValue(next()))
		}
	}
	s = make([]float64, m)
	for j := range s {
		s[j] = fuzzValue(next())
	}
	return psi, s
}

// FuzzSolve: on any small problem — zero, duplicate and collinear rows, huge
// and tiny magnitudes, NaN and Inf anywhere — the solver returns within its
// bound with finite w ≥ 0, and its residual is the residual of that w and,
// when ‖s‖ is a number, no worse than w = 0's.
// Additional seeds live in testdata/fuzz/FuzzSolve/.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 1, 2, 3, 3, 2, 1, 1, 1, 1})          // plain 3×4
	f.Add([]byte{1, 2, 1, 2, 3, 1, 2, 3, 0, 0, 0, 3, 5, 6}) // duplicate row, zero row
	f.Fuzz(func(t *testing.T, data []byte) {
		psi, s := fuzzProblem(data)
		res, err := solve(s, psi)
		if err != nil {
			t.Fatal(err)
		}
		checkFeasible(t, "fuzz", res, s)
		if again := residualWith(make([]float64, len(s)), s, res.W, psi); again != res.Residual && !(math.IsNaN(again) && math.IsNaN(res.Residual)) {
			t.Errorf("residual %v, but ‖s − wΨ‖ = %v", res.Residual, again)
		}
		if t.Failed() {
			t.Fatalf("Ψ = %v, s = %v, w = %v", psi, s, res.W)
		}
	})
}
