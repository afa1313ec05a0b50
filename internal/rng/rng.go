// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used to synthesize workloads (images, data streams)
// reproducibly across runs and across degrees of parallelism.
//
// The generator is SplitMix64 (Steele et al., "Fast splittable
// pseudorandom number generators", OOPSLA 2014). It is not
// cryptographically secure; it is chosen because a deterministic,
// seed-splittable stream is exactly what scale-free benchmarking needs:
// the input corpus must be identical no matter how many workers generate
// it.
package rng

// RNG is a SplitMix64 pseudo-random number generator. The zero value is a
// valid generator seeded with 0.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split returns a new generator whose stream is statistically independent
// of the parent's. The parent advances by one step.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64()}
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns an approximately normally distributed float64 with
// mean 0 and standard deviation 1, using the sum-of-uniforms method
// (Irwin–Hall with 12 summands). Accurate enough for synthetic feature
// vectors; avoids math.Log in hot generation loops.
func (r *RNG) NormFloat64() float64 {
	s := 0.0
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return s - 6.0
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
