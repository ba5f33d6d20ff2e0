// Package mat provides a small dense float64 matrix kernel used by the NMF
// and NNLS solvers. It is deliberately minimal: row-major storage, no
// external dependencies, explicit dimension checks that return errors at API
// boundaries and panic only on programmer errors inside hot loops.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// Common errors returned by constructors and codecs.
var (
	// ErrDimension reports an operation on matrices with incompatible shapes.
	ErrDimension = errors.New("mat: incompatible dimensions")
	// ErrEmpty reports an attempt to build a matrix with no rows or columns.
	ErrEmpty = errors.New("mat: empty matrix")
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	rows, cols int
	data       []float64
}

// New returns an r×c zero matrix. It returns ErrEmpty if either dimension is
// not positive.
func New(r, c int) (*Dense, error) {
	if r <= 0 || c <= 0 {
		return nil, fmt.Errorf("%w: %dx%d", ErrEmpty, r, c)
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}, nil
}

// MustNew is New but panics on error. Intended for tests and for dimensions
// already validated by the caller.
func MustNew(r, c int) *Dense {
	m, err := New(r, c)
	if err != nil {
		panic(err)
	}
	return m
}

// FromRows builds a matrix from a slice of equal-length rows. The data is
// copied.
func FromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, ErrEmpty
	}
	c := len(rows[0])
	m := MustNew(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrDimension, i, len(row), c)
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// FromSlice builds an r×c matrix reading data in row-major order. The data is
// copied.
func FromSlice(r, c int, data []float64) (*Dense, error) {
	if r <= 0 || c <= 0 {
		return nil, fmt.Errorf("%w: %dx%d", ErrEmpty, r, c)
	}
	if len(data) != r*c {
		return nil, fmt.Errorf("%w: have %d values, want %d", ErrDimension, len(data), r*c)
	}
	m := MustNew(r, c)
	copy(m.data, data)
	return m, nil
}

// Dims returns the number of rows and columns.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// SetRow copies v into row i. It panics if len(v) != Cols().
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: SetRow length %d, want %d", len(v), m.cols))
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], v)
}

// RawRow returns row i without copying. The returned slice aliases the
// matrix storage; callers must not retain it across mutations.
func (m *Dense) RawRow(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := MustNew(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// Apply replaces each element x with f(i, j, x).
func (m *Dense) Apply(f func(i, j int, v float64) float64) {
	for i := 0; i < m.rows; i++ {
		base := i * m.cols
		for j := 0; j < m.cols; j++ {
			m.data[base+j] = f(i, j, m.data[base+j])
		}
	}
}

// T returns a newly allocated transpose of m.
func (m *Dense) T() *Dense {
	out := MustNew(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		base := i * m.cols
		for j := 0; j < m.cols; j++ {
			out.data[j*m.rows+i] = m.data[base+j]
		}
	}
	return out
}

// Mul returns a*b. It returns ErrDimension if the inner dimensions differ.
func Mul(a, b *Dense) (*Dense, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: %dx%d * %dx%d", ErrDimension, a.rows, a.cols, b.rows, b.cols)
	}
	out := MustNew(a.rows, b.cols)
	MulInto(out, a, b)
	return out, nil
}

// MulInto computes dst = a*b without allocating. dst must be a.rows×b.cols
// and must not alias a or b (aliasing panics). Dimensions are assumed
// validated by the caller.
func MulInto(dst, a, b *Dense) {
	checkMulInto(dst, a, b)
	mulIntoBlocked(dst, a, b, 0, dst.rows, blockKC, blockJC)
}

func checkMulInto(dst, a, b *Dense) {
	if dst.rows != a.rows || dst.cols != b.cols || a.cols != b.rows {
		panic(fmt.Sprintf("mat: MulInto shapes %dx%d = %dx%d * %dx%d",
			dst.rows, dst.cols, a.rows, a.cols, b.rows, b.cols))
	}
	guardAlias("MulInto", dst, a, b)
}

// mulIntoRows computes rows [i0, i1) of dst = a*b with the naive ikj loop
// nest. It is the reference kernel the blocked implementation must match bit
// for bit: per-element accumulation runs over k ascending, independent of
// the row range, so any row partition — and any (kc, jc) blocking that keeps
// k ascending per element — is bit-identical to the full sequential pass.
func mulIntoRows(dst, a, b *Dense, i0, i1 int) {
	for i := i0; i < i1; i++ {
		dRow := dst.data[i*dst.cols : (i+1)*dst.cols]
		for j := range dRow {
			dRow[j] = 0
		}
		aRow := a.data[i*a.cols : (i+1)*a.cols]
		for k, av := range aRow {
			bRow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range bRow {
				dRow[j] += av * bv
			}
		}
	}
}

// MulATB returns aᵀ*b without materializing the transpose.
func MulATB(a, b *Dense) (*Dense, error) {
	if a.rows != b.rows {
		return nil, fmt.Errorf("%w: %dx%d^T * %dx%d", ErrDimension, a.rows, a.cols, b.rows, b.cols)
	}
	out := MustNew(a.cols, b.cols)
	MulATBInto(out, a, b)
	return out, nil
}

// MulATBInto computes dst = aᵀ*b without allocating. dst must not alias a
// or b (aliasing panics); a and b may alias each other (Gram products).
func MulATBInto(dst, a, b *Dense) {
	checkMulATBInto(dst, a, b)
	mulATBIntoBlocked(dst, a, b, 0, dst.rows, blockKC, blockJC)
}

func checkMulATBInto(dst, a, b *Dense) {
	if dst.rows != a.cols || dst.cols != b.cols || a.rows != b.rows {
		panic(fmt.Sprintf("mat: MulATBInto shapes %dx%d = (%dx%d)^T * %dx%d",
			dst.rows, dst.cols, a.rows, a.cols, b.rows, b.cols))
	}
	guardAlias("MulATBInto", dst, a, b)
}

// mulATBIntoRows computes rows [i0, i1) of dst = aᵀ*b — i.e. columns
// [i0, i1) of a — with the naive k-outer loop nest. It is the reference
// kernel for the blocked implementation: accumulation runs over k ascending
// for every dst element regardless of the row range, keeping any partition
// and any order-preserving blocking bit-identical to the sequential pass.
func mulATBIntoRows(dst, a, b *Dense, i0, i1 int) {
	for i := i0; i < i1; i++ {
		dRow := dst.data[i*dst.cols : (i+1)*dst.cols]
		for j := range dRow {
			dRow[j] = 0
		}
	}
	for k := 0; k < a.rows; k++ {
		aRow := a.data[k*a.cols : (k+1)*a.cols]
		bRow := b.data[k*b.cols : (k+1)*b.cols]
		for i := i0; i < i1; i++ {
			av := aRow[i]
			dRow := dst.data[i*dst.cols : (i+1)*dst.cols]
			for j, bv := range bRow {
				dRow[j] += av * bv
			}
		}
	}
}

// MulABTInto computes dst = a*bᵀ without allocating. dst must not alias a
// or b (aliasing panics); a and b may alias each other (Gram products).
func MulABTInto(dst, a, b *Dense) {
	checkMulABTInto(dst, a, b)
	mulABTIntoBlocked(dst, a, b, 0, dst.rows, blockKC, blockJC)
}

func checkMulABTInto(dst, a, b *Dense) {
	if dst.rows != a.rows || dst.cols != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: MulABTInto shapes %dx%d = %dx%d * (%dx%d)^T",
			dst.rows, dst.cols, a.rows, a.cols, b.rows, b.cols))
	}
	guardAlias("MulABTInto", dst, a, b)
}

// mulABTIntoRows computes rows [i0, i1) of dst = a*bᵀ with the naive
// per-element dot product — the reference kernel for the blocked
// implementation, which must keep each element's fold over k a single
// left-to-right chain to match it bit for bit.
func mulABTIntoRows(dst, a, b *Dense, i0, i1 int) {
	for i := i0; i < i1; i++ {
		aRow := a.data[i*a.cols : (i+1)*a.cols]
		dRow := dst.data[i*dst.cols : (i+1)*dst.cols]
		for j := 0; j < b.rows; j++ {
			bRow := b.data[j*b.cols : (j+1)*b.cols]
			var sum float64
			for k, av := range aRow {
				sum += av * bRow[k]
			}
			dRow[j] = sum
		}
	}
}

// Add returns a+b.
func Add(a, b *Dense) (*Dense, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, fmt.Errorf("%w: %dx%d + %dx%d", ErrDimension, a.rows, a.cols, b.rows, b.cols)
	}
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out, nil
}

// Sub returns a-b.
func Sub(a, b *Dense) (*Dense, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, fmt.Errorf("%w: %dx%d - %dx%d", ErrDimension, a.rows, a.cols, b.rows, b.cols)
	}
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out, nil
}

// Frobenius returns the Frobenius norm ‖m‖_F.
func (m *Dense) Frobenius() float64 {
	var sum float64
	for _, v := range m.data {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// FrobeniusDistance returns ‖a−b‖_F without allocating the difference.
func FrobeniusDistance(a, b *Dense) (float64, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return 0, fmt.Errorf("%w: %dx%d vs %dx%d", ErrDimension, a.rows, a.cols, b.rows, b.cols)
	}
	var sum float64
	for i, v := range a.data {
		d := v - b.data[i]
		sum += d * d
	}
	return math.Sqrt(sum), nil
}

// Sum returns the sum of all elements.
func (m *Dense) Sum() float64 {
	var s float64
	for _, v := range m.data {
		s += v
	}
	return s
}

// AbsSum returns the sum of absolute values of all elements (entrywise L1).
func (m *Dense) AbsSum() float64 {
	var s float64
	for _, v := range m.data {
		s += math.Abs(v)
	}
	return s
}

// Max returns the maximum element value. It panics on an empty matrix, which
// constructors make unrepresentable.
func (m *Dense) Max() float64 {
	max := m.data[0]
	for _, v := range m.data[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// Min returns the minimum element value.
func (m *Dense) Min() float64 {
	min := m.data[0]
	for _, v := range m.data[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// NonNegative reports whether all elements are ≥ 0.
func (m *Dense) NonNegative() bool {
	for _, v := range m.data {
		if v < 0 {
			return false
		}
	}
	return true
}

// CountNonZero returns the number of elements with |v| > eps.
func (m *Dense) CountNonZero(eps float64) int {
	var n int
	for _, v := range m.data {
		if math.Abs(v) > eps {
			n++
		}
	}
	return n
}

// Equal reports whether a and b have the same shape and all elements differ
// by at most tol.
func Equal(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Dense) String() string {
	const maxShow = 8
	s := fmt.Sprintf("Dense(%dx%d)", m.rows, m.cols)
	if m.rows > maxShow || m.cols > maxShow {
		return s
	}
	for i := 0; i < m.rows; i++ {
		s += "\n"
		for j := 0; j < m.cols; j++ {
			s += fmt.Sprintf(" %8.4f", m.At(i, j))
		}
	}
	return s
}
