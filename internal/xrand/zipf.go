package xrand

import "math"

// Zipf draws ranks from a Zipf(s, n) distribution: P(k) ∝ 1/k^s for
// k = 1..n. It is used to generate skewed column-value frequencies,
// mirroring the skewed TPC-H data generator (Z = 1, 2) the paper uses.
//
// Sampling uses the cumulative table when n is small and rejection
// inversion for large n.
type Zipf struct {
	n    int64
	s    float64
	cdf  []float64 // small-n cumulative table
	hx0  float64   // rejection-inversion precomputed constants
	hn   float64
	hxm  float64
	head []float64 // large-n: unnormalized partial sums for ranks 1..len(head)
	norm float64   // large-n: Σ_{k=1..n} k^-s (head sum + integral tail)
}

const zipfTableMax = 4096

// zipfHeadLen is the number of exact head terms kept for large-n
// frequency queries; beyond it the partial sum is completed with the
// midpoint-rule integral, which is accurate for the flat Zipf tail.
const zipfHeadLen = 1024

// NewZipf returns a Zipf sampler over ranks 1..n with exponent s >= 0.
// s = 0 degenerates to the uniform distribution.
func NewZipf(n int64, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with n <= 0")
	}
	z := &Zipf{n: n, s: s}
	if n <= zipfTableMax {
		z.cdf = make([]float64, n)
		var sum float64
		for k := int64(1); k <= n; k++ {
			sum += math.Pow(float64(k), -s)
			z.cdf[k-1] = sum
		}
		for i := range z.cdf {
			z.cdf[i] /= sum
		}
		return z
	}
	// Rejection inversion (Hörmann & Derflinger). h(x) = integral of
	// x^-s; we precompute h(0.5)+1 and h(n+0.5).
	z.hx0 = z.h(0.5) + 1
	z.hn = z.h(float64(n) + 0.5)
	z.hxm = z.hx0 - z.hn
	// Exact head partial sums plus an integral tail for Freq/TopFreq.
	z.head = make([]float64, zipfHeadLen)
	var sum float64
	for k := 1; k <= zipfHeadLen; k++ {
		sum += math.Pow(float64(k), -s)
		z.head[k-1] = sum
	}
	z.norm = sum + z.tailMass(zipfHeadLen, n)
	return z
}

// tailMass approximates Σ_{k=a+1..b} k^-s by the midpoint-rule integral
// ∫_{a+0.5}^{b+0.5} x^-s dx, which is very accurate once a is large.
func (z *Zipf) tailMass(a, b int64) float64 {
	if b <= a {
		return 0
	}
	// h is an antiderivative of -x^-s, so ∫_a^b x^-s dx = h(a) - h(b).
	return z.h(float64(a)+0.5) - z.h(float64(b)+0.5)
}

func (z *Zipf) h(x float64) float64 {
	if z.s == 1 {
		return -math.Log(x)
	}
	return -math.Pow(x, 1-z.s) / (1 - z.s)
}

func (z *Zipf) hInv(x float64) float64 {
	if z.s == 1 {
		return math.Exp(-x)
	}
	return math.Pow(-(1-z.s)*x, 1/(1-z.s))
}

// Rank draws a rank in [1, n]. Rank 1 is the most frequent value.
func (z *Zipf) Rank(r *Rand) int64 {
	if z.cdf != nil {
		u := r.Float64()
		lo, hi := 0, len(z.cdf)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if z.cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return int64(lo) + 1
	}
	for {
		u := r.Float64()
		x := z.hInv(z.hx0 - u*z.hxm)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		}
		if k > float64(z.n) {
			k = float64(z.n)
		}
		// Accept with probability proportional to the true mass at k
		// relative to the envelope.
		if k-x <= 0.5 || z.h(k+0.5)-z.h(k-0.5) >= math.Pow(k, -z.s)*0.9999 {
			return int64(k)
		}
	}
}

// Freq returns the relative frequency P(rank = k).
func (z *Zipf) Freq(k int64) float64 {
	if k < 1 || k > z.n {
		return 0
	}
	if z.cdf != nil {
		if k == 1 {
			return z.cdf[0]
		}
		return z.cdf[k-1] - z.cdf[k-2]
	}
	return math.Pow(float64(k), -z.s) / z.norm
}

// TopFreq returns the cumulative frequency of the m most frequent ranks.
func (z *Zipf) TopFreq(m int64) float64 {
	if m >= z.n {
		return 1
	}
	if m <= 0 {
		return 0
	}
	if z.cdf != nil {
		return z.cdf[m-1]
	}
	if m <= zipfHeadLen {
		return z.head[m-1] / z.norm
	}
	return (z.head[zipfHeadLen-1] + z.tailMass(zipfHeadLen, m)) / z.norm
}
