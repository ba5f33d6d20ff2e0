package mat

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewRejectsEmpty(t *testing.T) {
	tests := []struct{ r, c int }{{0, 3}, {3, 0}, {0, 0}, {-1, 2}, {2, -5}}
	for _, tt := range tests {
		if _, err := New(tt.r, tt.c); !errors.Is(err, ErrEmpty) {
			t.Errorf("New(%d,%d) err = %v, want ErrEmpty", tt.r, tt.c, err)
		}
	}
}

func TestNewZeroInitialized(t *testing.T) {
	m := MustNew(3, 4)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims() = %d,%d, want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := MustNew(2, 3)
	m.Set(1, 2, 7.5)
	m.Set(0, 0, -1)
	if got := m.At(1, 2); got != 7.5 {
		t.Errorf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != -1 {
		t.Errorf("At(0,0) = %v, want -1", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := MustNew(2, 2)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", idx[0], idx[1])
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape %dx%d, want 3x2", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v, want 6", m.At(2, 1))
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrDimension) {
		t.Errorf("ragged FromRows err = %v, want ErrDimension", err)
	}
}

func TestFromRowsEmpty(t *testing.T) {
	if _, err := FromRows(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("FromRows(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := FromRows([][]float64{{}}); !errors.Is(err, ErrEmpty) {
		t.Errorf("FromRows empty row err = %v, want ErrEmpty", err)
	}
}

func TestFromRowsCopies(t *testing.T) {
	src := [][]float64{{1, 2}}
	m, err := FromRows(src)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	src[0][0] = 99
	if m.At(0, 0) != 1 {
		t.Error("FromRows aliased caller data")
	}
}

func TestFromSlice(t *testing.T) {
	m, err := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("FromSlice: %v", err)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	if _, err := FromSlice(2, 2, []float64{1}); !errors.Is(err, ErrDimension) {
		t.Errorf("short data err = %v, want ErrDimension", err)
	}
}

func TestRowColCopies(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	row := m.Row(1)
	if row[0] != 4 || row[2] != 6 {
		t.Errorf("Row(1) = %v", row)
	}
	row[0] = 100
	if m.At(1, 0) != 4 {
		t.Error("Row returned aliased storage")
	}
}

func TestSetRow(t *testing.T) {
	m := MustNew(2, 3)
	m.SetRow(1, []float64{7, 8, 9})
	if m.At(1, 1) != 8 {
		t.Errorf("At(1,1) = %v, want 8", m.At(1, 1))
	}
	defer func() {
		if recover() == nil {
			t.Error("SetRow with wrong length did not panic")
		}
	}()
	m.SetRow(0, []float64{1})
}

func TestCloneIndependent(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("T shape %dx%d, want 3x2", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Errorf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	got, err := Mul(a, b)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	want, _ := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(got, want, 1e-12) {
		t.Errorf("Mul = %v, want %v", got, want)
	}
}

func TestMulDimensionMismatch(t *testing.T) {
	a := MustNew(2, 3)
	b := MustNew(2, 3)
	if _, err := Mul(a, b); !errors.Is(err, ErrDimension) {
		t.Errorf("Mul mismatch err = %v, want ErrDimension", err)
	}
}

func TestMulNonSquare(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 0, 2}}) // 1x3
	b, _ := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got, err := Mul(a, b)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	want, _ := FromRows([][]float64{{11, 14}})
	if !Equal(got, want, 1e-12) {
		t.Errorf("Mul = %v, want %v", got, want)
	}
}

// TestMulATBMatchesExplicitTranspose cross-checks the fused kernels against
// the naive compose-then-multiply path.
func TestMulATBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, _ := Random(7, 4, -2, 2, rng)
	b, _ := Random(7, 5, -2, 2, rng)
	fused, err := MulATB(a, b)
	if err != nil {
		t.Fatalf("MulATB: %v", err)
	}
	explicit, _ := Mul(a.T(), b)
	if !Equal(fused, explicit, 1e-10) {
		t.Error("MulATB differs from explicit Aᵀ*B")
	}
}

func TestMulABTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, _ := Random(6, 4, -2, 2, rng)
	b, _ := Random(3, 4, -2, 2, rng)
	fused := MustNew(6, 3)
	MulABTInto(fused, a, b)
	explicit, _ := Mul(a, b.T())
	if !Equal(fused, explicit, 1e-10) {
		t.Error("MulABTInto differs from explicit A*Bᵀ")
	}
}

func TestMulATBDimensionMismatch(t *testing.T) {
	if _, err := MulATB(MustNew(3, 2), MustNew(4, 2)); !errors.Is(err, ErrDimension) {
		t.Errorf("err = %v, want ErrDimension", err)
	}
}

func TestAddSub(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}})
	b, _ := FromRows([][]float64{{10, 20}})
	sum, err := Add(a, b)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if sum.At(0, 1) != 22 {
		t.Errorf("Add At(0,1) = %v, want 22", sum.At(0, 1))
	}
	diff, err := Sub(b, a)
	if err != nil {
		t.Fatalf("Sub: %v", err)
	}
	if diff.At(0, 0) != 9 {
		t.Errorf("Sub At(0,0) = %v, want 9", diff.At(0, 0))
	}
	if _, err := Add(a, MustNew(2, 2)); !errors.Is(err, ErrDimension) {
		t.Errorf("Add mismatch err = %v, want ErrDimension", err)
	}
	if _, err := Sub(a, MustNew(2, 2)); !errors.Is(err, ErrDimension) {
		t.Errorf("Sub mismatch err = %v, want ErrDimension", err)
	}
}

func TestFrobenius(t *testing.T) {
	m, _ := FromRows([][]float64{{3, 4}})
	if got := m.Frobenius(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Frobenius = %v, want 5", got)
	}
}

func TestFrobeniusDistance(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 1}})
	b, _ := FromRows([][]float64{{4, 5}})
	got, err := FrobeniusDistance(a, b)
	if err != nil {
		t.Fatalf("FrobeniusDistance: %v", err)
	}
	if math.Abs(got-5) > 1e-12 {
		t.Errorf("FrobeniusDistance = %v, want 5", got)
	}
	if _, err := FrobeniusDistance(a, MustNew(2, 2)); !errors.Is(err, ErrDimension) {
		t.Errorf("mismatch err = %v, want ErrDimension", err)
	}
}

func TestAggregates(t *testing.T) {
	m, _ := FromRows([][]float64{{-1, 2}, {3, -4}})
	if got := m.Sum(); got != 0 {
		t.Errorf("Sum = %v, want 0", got)
	}
	if got := m.AbsSum(); got != 10 {
		t.Errorf("AbsSum = %v, want 10", got)
	}
	if got := m.Max(); got != 3 {
		t.Errorf("Max = %v, want 3", got)
	}
	if got := m.Min(); got != -4 {
		t.Errorf("Min = %v, want -4", got)
	}
	if m.NonNegative() {
		t.Error("NonNegative = true for matrix with negatives")
	}
	if got := m.CountNonZero(0.5); got != 4 {
		t.Errorf("CountNonZero = %d, want 4", got)
	}
}

func TestApplyFill(t *testing.T) {
	m := MustNew(2, 2)
	m.Fill(3)
	if m.Sum() != 12 {
		t.Errorf("Fill Sum = %v, want 12", m.Sum())
	}
	m.Apply(func(i, j int, v float64) float64 { return v + float64(i*10+j) })
	if m.At(1, 1) != 14 {
		t.Errorf("Apply At(1,1) = %v, want 14", m.At(1, 1))
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, err := Random(4, 4, 0, 1, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatalf("Random: %v", err)
	}
	b, _ := Random(4, 4, 0, 1, rand.New(rand.NewSource(42)))
	if !Equal(a, b, 0) {
		t.Error("Random with identical seeds produced different matrices")
	}
	c, _ := Random(4, 4, 0, 1, rand.New(rand.NewSource(43)))
	if Equal(a, c, 0) {
		t.Error("Random with different seeds produced identical matrices")
	}
}

func TestRandomPositiveStrictlyPositive(t *testing.T) {
	m, err := RandomPositive(10, 10, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatalf("RandomPositive: %v", err)
	}
	if m.Min() <= 0 {
		t.Errorf("RandomPositive Min = %v, want > 0", m.Min())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	m, _ := FromRows([][]float64{{1.5, -2.25, 0}, {3.125, 4, 5e-9}})
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !Equal(m, got, 0) {
		t.Error("CSV round trip changed values")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("1,notanumber\n")); err == nil {
		t.Error("ReadCSV accepted non-numeric field")
	}
	if _, err := ReadCSV(strings.NewReader("")); !errors.Is(err, ErrEmpty) {
		t.Errorf("ReadCSV empty err = %v, want ErrEmpty", err)
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n")); !errors.Is(err, ErrDimension) {
		t.Errorf("ReadCSV ragged err = %v, want ErrDimension", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var got Dense
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !Equal(m, &got, 0) {
		t.Error("JSON round trip changed values")
	}
}

func TestJSONUnmarshalInvalid(t *testing.T) {
	var m Dense
	if err := json.Unmarshal([]byte(`{"rows":2,"cols":2,"data":[1]}`), &m); err == nil {
		t.Error("Unmarshal accepted inconsistent dims")
	}
	if err := json.Unmarshal([]byte(`{bad`), &m); err == nil {
		t.Error("Unmarshal accepted malformed JSON")
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small, _ := FromRows([][]float64{{1, 2}})
	if s := small.String(); !strings.Contains(s, "1.0000") {
		t.Errorf("String() = %q, want rendered values", s)
	}
	large := MustNew(20, 20)
	if s := large.String(); strings.Contains(s, "\n") {
		t.Errorf("large String() should be elided, got %q", s)
	}
}

// Property: (AB)ᵀ = BᵀAᵀ for random matrices.
func TestPropertyTransposeOfProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(6)
		k := 1 + rng.Intn(6)
		c := 1 + rng.Intn(6)
		a, _ := Random(r, k, -3, 3, rng)
		b, _ := Random(k, c, -3, 3, rng)
		ab, _ := Mul(a, b)
		btat, _ := Mul(b.T(), a.T())
		return Equal(ab.T(), btat, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Frobenius norm is invariant under transpose.
func TestPropertyFrobeniusTransposeInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, _ := Random(1+rng.Intn(8), 1+rng.Intn(8), -5, 5, rng)
		return math.Abs(m.Frobenius()-m.T().Frobenius()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: matrix multiplication distributes over addition: A(B+C) = AB+AC.
func TestPropertyMulDistributesOverAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(5)
		k := 1 + rng.Intn(5)
		c := 1 + rng.Intn(5)
		a, _ := Random(r, k, -2, 2, rng)
		b, _ := Random(k, c, -2, 2, rng)
		cc, _ := Random(k, c, -2, 2, rng)
		bc, _ := Add(b, cc)
		left, _ := Mul(a, bc)
		ab, _ := Mul(a, b)
		ac, _ := Mul(a, cc)
		right, _ := Add(ab, ac)
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
