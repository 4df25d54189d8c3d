// Package stats provides the deterministic random number generation and
// Gaussian mathematics used by the process-variation model and the
// detection-probability computations (Eq. 3 / Table II of the paper).
package stats

import (
	"math"
	"sort"
)

// RNG is a small, fast, deterministic generator (splitmix64). Every
// stochastic component of the toolchain takes an explicit seed so that
// experiments are exactly reproducible.
type RNG struct {
	state uint64
	// Box-Muller spare value cache.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns a fair coin flip.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Norm returns a standard-normal sample (Box-Muller, with caching of the
// second value of each pair).
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			f := math.Sqrt(-2 * math.Log(s) / s)
			r.spare = v * f
			r.hasSpare = true
			return u * f
		}
	}
}

// Fork returns an independent generator derived from r's stream, so that
// substreams (per-chip, per-gate) stay decorrelated and reproducible.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1342543de82ef95)
}

// Phi is the standard normal cumulative distribution function.
func Phi(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// PhiInv is the standard normal quantile function (Acklam's rational
// approximation, |relative error| < 1.15e-9), used for confidence bounds.
func PhiInv(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow, pHigh = 0.02425, 1 - 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// Median returns the sample median (mean of the central pair for even
// sizes). It returns NaN for an empty sample. The input is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 0 {
		return (s[mid-1] + s[mid]) / 2
	}
	return s[mid]
}

// MAD returns the sample median and the median absolute deviation around
// it — the robust location/scale pair used for outlier rejection in the
// measurement-acquisition layer. Zero MAD means at least half the sample
// is identical to the median.
func MAD(xs []float64) (med, mad float64) {
	med = Median(xs)
	if len(xs) == 0 {
		return med, math.NaN()
	}
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	return med, Median(devs)
}

// RejectOutliersMAD returns the samples within k MADs of the median, in
// input order. With zero MAD (a majority-identical sample) only samples
// equal to the median survive — the correct verdict when a stuck tester
// repeats one value. Samples the filter would empty out entirely are
// impossible: the median itself always survives.
func RejectOutliersMAD(xs []float64, k float64) []float64 {
	if len(xs) < 3 {
		return xs
	}
	med, mad := MAD(xs)
	kept := make([]float64, 0, len(xs))
	for _, x := range xs {
		if math.Abs(x-med) <= k*mad {
			kept = append(kept, x)
		}
	}
	return kept
}

// Summary holds basic sample statistics.
type Summary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// Summarize computes sample statistics (Std is the sample standard
// deviation with Bessel's correction; zero for N < 2).
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	if len(xs) == 0 {
		s.Min, s.Max = 0, 0
		return s
	}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) >= 2 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}
