// Package rng provides counter-based, splittable pseudo-random streams for
// the simulation stack. Unlike a shared *rand.Rand, a Stream is keyed by an
// explicit tuple (seed, epoch, phase, link, ...) and draws values by hashing
// a counter, so:
//
//   - draws for one key are independent of how many draws any other key
//     consumed (no serialization through a shared generator state), which
//     lets simulation phases fan out across goroutines and lets link pruning
//     skip work without perturbing the surviving links' randomness;
//   - the same key always yields the same draw sequence, making every
//     consumer reproducible by construction.
//
// The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA'13): the k-th
// value of a stream is the 64-bit finalizer applied to key + k*golden-ratio.
// SplitMix64 passes BigCrush and is more than adequate for Monte-Carlo
// simulation; it is not cryptographic.
package rng

import "math"

// gamma is the SplitMix64 odd increment (2^64 / golden ratio).
const gamma = 0x9e3779b97f4a7c15

// mix64 is the SplitMix64 finalizer: a bijective avalanche of all 64 bits.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Key combines an arbitrary tuple of identifiers into a 64-bit stream key.
// Each part is avalanched into the accumulator, so tuples differing in any
// single part (including by transposition) yield unrelated keys.
func Key(parts ...uint64) uint64 { return Extend(gamma, parts...) }

// Extend folds further parts into a key: Extend(Key(a, b), c) == Key(a, b, c),
// because Key is this same left fold started from gamma. A caller whose keys
// share a prefix hashes the prefix once and extends it per draw.
func Extend(h uint64, parts ...uint64) uint64 {
	for _, p := range parts {
		h = mix64(h^p) + gamma
	}
	return h
}

// I converts a signed identifier (node index, epoch, seed) to a key part.
func I(v int) uint64 { return uint64(int64(v)) }

// Stream is one counter-based random stream. The zero value is a valid
// stream with key 0; normally construct with New. Stream is a small value
// type — copy it freely; each copy continues independently from the shared
// counter position. A Stream is not safe for concurrent use, but distinct
// Streams (any keys) are, which is the whole point.
type Stream struct {
	key uint64
	ctr uint64
}

// New returns the stream for the given key tuple.
func New(parts ...uint64) Stream {
	return Stream{key: Key(parts...)}
}

// At returns the stream whose key is already combined (by Key or Extend).
func At(key uint64) Stream { return Stream{key: key} }

// Uint64 returns the next 64-bit value of the stream.
func (s *Stream) Uint64() uint64 {
	v := mix64(s.key + s.ctr*gamma)
	s.ctr++
	return v
}

// Float64 returns the next value uniform in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns the next approximately standard-normal value as the
// sum of 12 uniforms minus 6 (Irwin–Hall): exact mean 0 and variance 1,
// support bounded to (-6, 6). The bounded support is deliberate — it gives
// the radio layer an exact "no draw can ever exceed ±6σ" guarantee that
// makes link pruning lossless — and the distortion relative to a true
// normal is negligible for the simulator (tail mass beyond 6σ is ~1e-9).
// Unlike Box–Muller it costs no log/sqrt/trig in the hot path.
//
// The 12 uniforms are 16-bit lanes unpacked from three 64-bit draws — this
// is the per-transmission hot path, so the cost is 3 hashes, not 12. Each
// lane is the midpoint (u+½)/2¹⁶ of a discrete uniform, preserving exact
// mean 0; the lane granularity (~9·10⁻⁵ per summand after the CLT smooths
// 12 of them) is far below every physical sigma in the simulator.
func (s *Stream) NormFloat64() float64 {
	var sum float64
	for i := 0; i < 3; i++ {
		u := s.Uint64()
		sum += float64(u&0xffff) + float64(u>>16&0xffff) +
			float64(u>>32&0xffff) + float64(u>>48)
	}
	// sum of 12 lanes + 12 half-steps, scaled to (0,12), centered on 0.
	return (sum+6)/65536 - 6
}

// NormMax bounds the support of NormFloat64: |NormFloat64()| < NormMax.
const NormMax = 6.0

// Bits returns a float64's IEEE-754 bits for use as a key part (positions,
// physical constants). Exactly equal floats — the only way the simulator
// ever compares positions — produce equal parts.
func Bits(f float64) uint64 { return math.Float64bits(f) }
