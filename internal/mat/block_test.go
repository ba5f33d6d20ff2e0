package mat

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/wsn-tools/vn2/internal/par"
)

// blockGrid deliberately includes degenerate (1), non-dividing (7, 13, 100)
// and larger-than-dimension (1 << 20) block sizes.
func blockGrid() []int {
	return []int{1, 7, 13, 64, 100, 1 << 20}
}

func blockWorkerGrid() []int {
	return []int{0, 1, 2, 4, 8}
}

// randomSigned fills matrices with signed values including exact zeros, the
// inputs most likely to expose accumulation-order or zero-handling drift
// between kernels.
func randomSigned(r, c int, rng *rand.Rand) *Dense {
	m := MustNew(r, c)
	for i := 0; i < r; i++ {
		row := m.RawRow(i)
		for j := range row {
			switch rng.Intn(8) {
			case 0:
				row[j] = 0
			default:
				row[j] = rng.NormFloat64() * 3
			}
		}
	}
	return m
}

// mustEqualBits fails unless got and want match bit for bit.
func mustEqualBits(t *testing.T, ctx string, got, want *Dense) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", ctx, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < got.Rows(); i++ {
		g, w := got.RawRow(i), want.RawRow(i)
		for j := range g {
			if g[j] != w[j] {
				t.Fatalf("%s: element (%d,%d) = %v, want %v", ctx, i, j, g[j], w[j])
			}
		}
	}
}

// Shapes exercise tile remainders: rows not divisible by the 4- and 2-row
// unrolls, dimensions smaller than a block, and k ranges spanning several
// panels.
var blockShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 5, 2},
	{17, 43, 9},
	{50, 130, 70},
	{64, 64, 64},
}

func TestMulIntoBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, s := range blockShapes {
		a := randomSigned(s.m, s.k, rng)
		b := randomSigned(s.k, s.n, rng)
		want := MustNew(s.m, s.n)
		mulIntoRows(want, a, b, 0, s.m)
		for _, kc := range blockGrid() {
			for _, jc := range blockGrid() {
				got := MustNew(s.m, s.n)
				mulIntoBlocked(got, a, b, 0, s.m, kc, jc)
				mustEqualBits(t, ctxBlock("MulInto", s.m, s.k, s.n, kc, jc), got, want)
			}
		}
	}
}

func TestMulATBIntoBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, s := range blockShapes {
		a := randomSigned(s.k, s.m, rng)
		b := randomSigned(s.k, s.n, rng)
		want := MustNew(s.m, s.n)
		mulATBIntoRows(want, a, b, 0, s.m)
		for _, kc := range blockGrid() {
			for _, jc := range blockGrid() {
				got := MustNew(s.m, s.n)
				mulATBIntoBlocked(got, a, b, 0, s.m, kc, jc)
				mustEqualBits(t, ctxBlock("MulATBInto", s.m, s.k, s.n, kc, jc), got, want)
			}
		}
	}
}

func TestMulABTIntoBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, s := range blockShapes {
		a := randomSigned(s.m, s.k, rng)
		b := randomSigned(s.n, s.k, rng)
		want := MustNew(s.m, s.n)
		mulABTIntoRows(want, a, b, 0, s.m)
		for _, kc := range blockGrid() {
			for _, jc := range blockGrid() {
				got := MustNew(s.m, s.n)
				mulABTIntoBlocked(got, a, b, 0, s.m, kc, jc)
				mustEqualBits(t, ctxBlock("MulABTInto", s.m, s.k, s.n, kc, jc), got, want)
			}
		}
	}
}

// TestBlockedMulIntoOverPoolChunks crosses block sizes with par.Run's row
// chunks: any chunking of dst rows over any blocking must be bit-identical to
// the naive sequential kernels.
func TestBlockedMulIntoOverPoolChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	const m, k, n = 45, 80, 33
	a := randomSigned(m, k, rng)
	b := randomSigned(k, n, rng)
	want := MustNew(m, n)
	mulIntoRows(want, a, b, 0, m)
	for _, parts := range blockWorkerGrid() {
		for _, kc := range []int{1, 13, 64} {
			for _, jc := range []int{1, 13, 64} {
				got := MustNew(m, n)
				_ = par.Run(m, parts, func(_, start, end int) error {
					mulIntoBlocked(got, a, b, start, end, kc, jc)
					return nil
				})
				mustEqualBits(t, ctxBlock("partitioned MulInto", m, k, n, kc, jc), got, want)
			}
		}
	}
}

// TestMulIntoOnMatchesSequential proves the three public products are
// bit-identical to their naive sequential reference kernels.
func TestMulIntoOnMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	const m, k, n = 38, 61, 27
	a := randomSigned(m, k, rng)
	b := randomSigned(k, n, rng)
	at := a.T()
	bt := MustNew(n, k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			bt.Set(i, j, b.At(j, i))
		}
	}

	wantAB := MustNew(m, n)
	mulIntoRows(wantAB, a, b, 0, m)
	wantATB := MustNew(m, n)
	mulATBIntoRows(wantATB, at, b, 0, m)
	wantABT := MustNew(m, n)
	mulABTIntoRows(wantABT, a, bt, 0, m)

	got := MustNew(m, n)
	MulInto(got, a, b)
	mustEqualBits(t, "MulInto", got, wantAB)
	MulATBInto(got, at, b)
	mustEqualBits(t, "MulATBInto", got, wantATB)
	MulABTInto(got, a, bt)
	mustEqualBits(t, "MulABTInto", got, wantABT)
}

// TestMulABTIntoBlockedGram covers the aliased a==b Gram case the NMF sweep
// relies on (ΨΨᵀ), which the alias guard explicitly permits.
func TestMulABTIntoBlockedGram(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	psi := randomSigned(12, 43, rng)
	want := MustNew(12, 12)
	mulABTIntoRows(want, psi, psi, 0, 12)
	got := MustNew(12, 12)
	mulABTIntoBlocked(got, psi, psi, 0, 12, 16, 5)
	mustEqualBits(t, "Gram MulABTInto", got, want)
}

func ctxBlock(op string, m, k, n, kc, jc int) string {
	return fmt.Sprintf("%s %dx%dx%d kc=%d jc=%d", op, m, k, n, kc, jc)
}
