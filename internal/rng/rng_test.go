package rng

import (
	"math"
	"testing"
)

func TestStreamDeterministic(t *testing.T) {
	a := New(1, 2, 3)
	b := New(1, 2, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same key diverged at draw %d", i)
		}
	}
}

func TestStreamsIndependentOfConsumption(t *testing.T) {
	// Draws from key A must not depend on how much key B consumed — the
	// property a shared rand.Rand lacks.
	a1 := New(7, 8)
	var want []uint64
	for i := 0; i < 16; i++ {
		want = append(want, a1.Uint64())
	}
	b := New(7, 9)
	for i := 0; i < 1000; i++ {
		b.Uint64()
	}
	a2 := New(7, 8)
	for i, w := range want {
		if got := a2.Uint64(); got != w {
			t.Fatalf("draw %d changed after another stream consumed: %d vs %d", i, got, w)
		}
	}
}

func TestKeySensitivity(t *testing.T) {
	base := Key(1, 2, 3)
	if Key(1, 2, 4) == base || Key(1, 3, 2) == base || Key(3, 2, 1) == base {
		t.Error("key collisions on near tuples")
	}
	if Key(1, 2) == Key(1, 2, 0) {
		t.Error("length not folded into key")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(42)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	s := New(99)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Float64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v, want ~%v", variance, 1.0/12)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(7)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		if v <= -NormMax || v >= NormMax {
			t.Fatalf("normal draw %v outside (-%v, %v)", v, NormMax, NormMax)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestI(t *testing.T) {
	if I(-1) != ^uint64(0) {
		t.Errorf("I(-1) = %x", I(-1))
	}
	if I(5) != 5 {
		t.Errorf("I(5) = %d", I(5))
	}
}

func TestBits(t *testing.T) {
	if Bits(1.5) != math.Float64bits(1.5) {
		t.Error("Bits mismatch")
	}
}

// oracleKey is Key as it stood before Extend existed: the reference the
// hoisted prefixes are held to.
func oracleKey(parts ...uint64) uint64 {
	h := uint64(gamma)
	for _, p := range parts {
		h = mix64(h^p) + gamma
	}
	return h
}

func TestExtendEveryPrefixSplit(t *testing.T) {
	src := New(2024)
	for trial := 0; trial < 500; trial++ {
		p := make([]uint64, src.Uint64()%8)
		for i := range p {
			p[i] = src.Uint64()
			if src.Uint64()%4 == 0 {
				p[i] %= 4 // small ids, the simulator's common case
			}
		}
		want := oracleKey(p...)
		for i := 0; i <= len(p); i++ {
			if got := Extend(Key(p[:i]...), p[i:]...); got != want {
				t.Fatalf("Extend(Key(%v), %v) = %x, want Key(%v) = %x", p[:i], p[i:], got, p, want)
			}
		}
		a, b := At(want), New(p...)
		if a.Uint64() != b.Uint64() || a.NormFloat64() != b.NormFloat64() {
			t.Fatalf("At(Key(%v)) draws differ from New(%v)", p, p)
		}
	}
}
