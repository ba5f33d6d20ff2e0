package mat

import "unsafe"

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
