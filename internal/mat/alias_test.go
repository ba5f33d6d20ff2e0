package mat

import (
	"math/rand"
	"strings"
	"testing"
)

func TestParallelGramAllowsInputAliasing(t *testing.T) {
	// a aliasing b is legal: Gram products pass the same matrix twice.
	rng := rand.New(rand.NewSource(14))
	w := randomSigned(40, 7, rng)
	want := MustNew(7, 7)
	mulATBIntoRows(want, w, w, 0, 7)
	got := MustNew(7, 7)
	MulATBInto(got, w, w)
	mustEqualBits(t, "Gram MulATBInto", got, want)
}

func TestMulIntoPanicsOnDstAliasingA(t *testing.T) {
	m := MustNew(4, 4)
	b := MustNew(4, 4)
	assertAliasPanic(t, "dst aliases a", func() { MulInto(m, m, b) })
}

func TestMulIntoPanicsOnDstAliasingB(t *testing.T) {
	m := MustNew(4, 4)
	a := MustNew(4, 4)
	assertAliasPanic(t, "dst aliases b", func() { MulInto(m, a, m) })
}

func TestMulATBIntoPanicsOnAliasedDst(t *testing.T) {
	m := MustNew(4, 4)
	b := MustNew(4, 4)
	assertAliasPanic(t, "dst aliases a", func() { MulATBInto(m, m, b) })
}

func TestMulABTIntoPanicsOnAliasedDst(t *testing.T) {
	m := MustNew(4, 4)
	a := MustNew(4, 4)
	assertAliasPanic(t, "dst aliases b", func() { MulABTInto(m, a, m) })
}

// TestParallelVariantsPanicOnAliasedDst: a dst that overlaps an input only
// partly — a row view of the same backing array — is refused by every
// product.
func TestParallelVariantsPanicOnAliasedDst(t *testing.T) {
	backing := make([]float64, 20)
	dst := &Dense{rows: 4, cols: 4, data: backing[:16]}
	a := &Dense{rows: 4, cols: 4, data: backing[4:]}
	other := MustNew(4, 4)
	assertAliasPanic(t, "dst aliases a", func() { MulInto(dst, a, other) })
	assertAliasPanic(t, "dst aliases a", func() { MulATBInto(dst, a, other) })
	assertAliasPanic(t, "dst aliases a", func() { MulABTInto(dst, a, other) })
}

func assertAliasPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic on aliased dst")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic = %v, want mention of %q", r, want)
		}
	}()
	fn()
}

func TestSlicesOverlap(t *testing.T) {
	backing := make([]float64, 10)
	cases := []struct {
		name string
		x, y []float64
		want bool
	}{
		{"identical", backing, backing, true},
		{"disjoint", backing[:4], backing[6:], false},
		{"partial", backing[:6], backing[4:], true},
		{"adjacent", backing[:5], backing[5:], false},
		{"separate allocations", backing, make([]float64, 10), false},
		{"empty", nil, backing, false},
	}
	for _, c := range cases {
		if got := slicesOverlap(c.x, c.y); got != c.want {
			t.Errorf("%s: slicesOverlap = %v, want %v", c.name, got, c.want)
		}
	}
}
