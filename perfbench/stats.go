package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the Harrell–Davis estimate of the q-quantile
// (0 ≤ q ≤ 1) of xs: the mean of all order statistics weighted by a
// Beta((n+1)q, (n+1)(1−q)) distribution over rank. A single order
// statistic jumps whenever the sample has a gap near the quantile — as a
// latency sample does between cache hits and misses — so its run-to-run
// spread is wider than this weighted mean's. It returns NaN for an empty
// sample and does not modify xs.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 || n == 1 {
		return s[0]
	}
	if q >= 1 {
		return s[n-1]
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i, x := range s {
		cur := betaInc(a, b, float64(i+1)/float64(n))
		est += (cur - prev) * x
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the incomplete beta continued fraction (modified Lentz).
func betaCF(a, b, x float64) float64 {
	const eps, tiny = 1e-15, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 500; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// another reports whether a run that has measured n units of work in
// spent should start one more: it always measures one, then goes on while
// ending after the next unit lands nearer budget than stopping now. A run
// thus measures the whole number of units nearest its --seconds.
func another(spent time.Duration, n int, budget time.Duration) bool {
	return n == 0 || spent+spent/time.Duration(2*n) < budget
}

// arrival is one scheduled request of an open-loop run: when it is due,
// relative to the start of its window, and which request it is.
type arrival struct {
	At    time.Duration
	Index int
}

// schedule lays out an open-loop arrival plan of rate requests per second
// over window: rate·window requests (rounded), the i-th sent at a uniform
// random time within the i-th of that many equal slots. Every seed offers
// the same load with the same bounded burstiness (at most two requests
// within one slot width), so run-to-run differences come from the system,
// not from how bursty a seed's arrivals happened to be. The plan is a pure
// function of its inputs; next must return values in [0, 1).
func schedule(rate float64, window time.Duration, next func() float64) []arrival {
	n := int(math.Round(rate * window.Seconds()))
	slot := float64(window) / float64(n)
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{At: time.Duration((float64(i) + next()) * slot), Index: i}
	}
	return out
}

// outcome is the fate of one open-loop request.
type outcome struct {
	Latency time.Duration // from its scheduled send time to its verified verdict
	OK      bool          // a verified, correct verdict arrived
}

// goodput is the number of requests per second of offered window that
// returned a correct verdict within limit. A failed request never counts,
// whatever its latency.
func goodput(outs []outcome, limit, window time.Duration) float64 {
	n := 0
	for _, o := range outs {
		if o.OK && o.Latency <= limit {
			n++
		}
	}
	return float64(n) / window.Seconds()
}

// latencies returns the request latencies in milliseconds, with every
// failed request counted at penalty: a failure misses any latency limit.
func latencies(outs []outcome, penalty time.Duration) []float64 {
	ms := make([]float64, len(outs))
	for i, o := range outs {
		d := o.Latency
		if !o.OK && d < penalty {
			d = penalty
		}
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	return ms
}

// splitmix64 is the input generator: a tiny seeded PRNG, so every input
// of a run derives from the --seed argument alone.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (s *splitmix64) float() float64 { return float64(s.next()>>11) / (1 << 53) }
