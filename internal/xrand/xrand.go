// Package xrand provides deterministic pseudo-random generation for the
// whole repository. Every data set, workload and noise source is derived
// from an explicit seed so that experiments and tests are reproducible.
//
// The generator is a SplitMix64/xorshift-style PRNG that can be "split"
// into independent child streams keyed by strings, which lets distant
// packages (data generation, query parameters, engine noise) share one
// root seed without coordinating draw order.
package xrand

import (
	"hash/fnv"
	"math"
)

// Rand is a small deterministic PRNG. The zero value is not usable; create
// instances with New or Split.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed. Two generators with the same
// seed produce identical streams.
func New(seed uint64) *Rand {
	r := &Rand{state: seed}
	// Warm up so that small seeds (0, 1, 2...) do not produce correlated
	// initial outputs.
	r.Uint64()
	r.Uint64()
	return r
}

// Split derives an independent child generator keyed by name. Splitting is
// deterministic: the same parent state and name always yield the same
// child. The parent is not advanced, so splits may happen in any order.
func (r *Rand) Split(name string) *Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return New(r.state ^ Mix64(h.Sum64()))
}

// SplitN derives an independent child generator keyed by an integer,
// useful for per-item streams (per query, per table).
func (r *Rand) SplitN(n uint64) *Rand {
	return New(r.state ^ Mix64(n*0x9E3779B97F4A7C15+0x123456789ABCDEF))
}

// Mix64 is SplitMix64's finalizer (Steele et al.), a full-avalanche
// bijection on uint64: the generator's output function, and what the
// serving cache and the router's ring finish their FNV hashes with.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits (SplitMix64).
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	return Mix64(r.state)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n called with n <= 0")
	}
	return int64(r.Uint64() % uint64(n))
}

// Range returns a uniform float64 in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// IntRange returns a uniform integer in [lo, hi] inclusive.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *Rand) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		u2 := r.Float64()
		if u1 <= 1e-300 {
			continue
		}
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// LogNormal returns exp(N(mu, sigma^2)). With mu = -sigma^2/2 the mean of
// the distribution is 1, which is the form used for multiplicative
// measurement noise in the execution simulator.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Noise returns a multiplicative noise factor with unit mean and the given
// relative standard deviation (coefficient of variation).
func (r *Rand) Noise(cv float64) float64 {
	if cv <= 0 {
		return 1
	}
	sigma := math.Sqrt(math.Log(1 + cv*cv))
	return r.LogNormal(-sigma*sigma/2, sigma)
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle randomly permutes n elements using the provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}
