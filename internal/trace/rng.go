package trace

import "math"

// RNG is a deterministic xorshift64* pseudo-random generator. Every workload
// owns one, seeded from the workload name, so simulations are exactly
// reproducible across runs and platforms (a hard requirement for the
// regression tests and for comparing prefetch policies on identical traces).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (zero is remapped, as the
// xorshift state must never be zero).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// SeedFromString derives a 64-bit seed from a string using FNV-1a.
func SeedFromString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Advance consumes one draw, evolving the state exactly as Uint64 does but
// producing no value: the output multiply and any float conversion are
// skipped. Skip-mode replay uses it for draws whose outcome is discarded —
// the state sequence (and thus every later draw) stays bit-identical to the
// emitting path at a fraction of the cost.
func (r *RNG) Advance() {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
}

// Intn returns a pseudo-random int in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("trace: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// threshold returns the t for which below(t) is Bool(p), draw for draw.
// Float64 is k/2^53 for the integer k = Uint64()>>11, exactly — k has 53 bits
// and the divisor is a power of two — so k/2^53 < p is k < p·2^53, which for
// an integer k is k < ceil(p·2^53); p·2^53 is exact too.
func threshold(p float64) uint64 {
	switch {
	case p >= 1:
		return 1 << 53 // above every k
	case p > 0:
		return uint64(math.Ceil(p * (1 << 53)))
	}
	return 0 // p <= 0 or NaN: never
}

// below is Bool against a threshold computed ahead of time: no conversion to
// floating point per draw.
func (r *RNG) below(t uint64) bool { return r.Uint64()>>11 < t }
