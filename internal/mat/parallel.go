package mat

import (
	"unsafe"

	"github.com/wsn-tools/vn2/internal/par"
)

// slicesOverlap reports whether two float64 slices share any backing memory.
func slicesOverlap(x, y []float64) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	x0 := uintptr(unsafe.Pointer(&x[0]))
	x1 := x0 + uintptr(len(x))*unsafe.Sizeof(float64(0))
	y0 := uintptr(unsafe.Pointer(&y[0]))
	y1 := y0 + uintptr(len(y))*unsafe.Sizeof(float64(0))
	return x0 < y1 && y0 < x1
}

// guardAlias panics when dst shares backing storage with a or b: every Into
// kernel both reads its inputs and overwrites dst, so an aliased call would
// silently corrupt the product. Failing loudly here turns that misuse into
// an immediate programmer-error panic. a aliasing b is legal (Gram
// products such as WᵀW pass the same matrix twice).
func guardAlias(op string, dst, a, b *Dense) {
	if slicesOverlap(dst.data, a.data) {
		panic("mat: " + op + ": dst aliases a")
	}
	if slicesOverlap(dst.data, b.data) {
		panic("mat: " + op + ": dst aliases b")
	}
}

// MulIntoOn is MulInto with dst rows dispatched over a reusable pool: the
// hot-loop form for callers (the NMF sweeps) that run many products per
// iteration and must not pay a per-call goroutine spawn. Writes are
// disjoint per row and each element accumulates in the same order as the
// sequential kernel, so the result is bit-identical to MulInto for any pool
// size.
func MulIntoOn(p *par.Pool, dst, a, b *Dense) {
	checkMulInto(dst, a, b)
	p.Run(dst.rows, func(i0, i1 int) {
		mulIntoBlocked(dst, a, b, i0, i1, blockKC, blockJC)
	})
}

// MulATBIntoOn is MulATBInto dispatched over a reusable pool.
// Bit-identical to MulATBInto for any pool size.
func MulATBIntoOn(p *par.Pool, dst, a, b *Dense) {
	checkMulATBInto(dst, a, b)
	p.Run(dst.rows, func(i0, i1 int) {
		mulATBIntoBlocked(dst, a, b, i0, i1, blockKC, blockJC)
	})
}

// MulABTIntoOn is MulABTInto dispatched over a reusable pool.
// Bit-identical to MulABTInto for any pool size.
func MulABTIntoOn(p *par.Pool, dst, a, b *Dense) {
	checkMulABTInto(dst, a, b)
	p.Run(dst.rows, func(i0, i1 int) {
		mulABTIntoBlocked(dst, a, b, i0, i1, blockKC, blockJC)
	})
}
