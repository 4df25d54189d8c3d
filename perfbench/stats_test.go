package main

import (
	"math"
	"testing"
	"time"
)

func TestBetaInc(t *testing.T) {
	cases := []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3},                   // uniform: I_x(1,1) = x
		{3, 1, 0.5, 0.125},                 // I_x(a,1) = x^a
		{1, 4, 0.5, 1 - 0.0625},            // I_x(1,b) = 1-(1-x)^b
		{2, 2, 0.5, 0.5},                   // symmetric
		{2.5, 7.5, 0.2, 0.401238698247195}, // Simpson integration of the Beta density
	}
	for _, c := range cases {
		if got := betaInc(c.a, c.b, c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("betaInc(%v, %v, %v) = %v, want %v", c.a, c.b, c.x, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, // ends, and the median of a symmetric sample
	}
	for _, c := range cases {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	last := quantile(xs, 0.01)
	for q := 0.05; q < 1; q += 0.05 {
		got := quantile(xs, q)
		if got < last || got < 1 || got > 5 {
			t.Fatalf("quantile(%v) = %v: not monotone within [1, 5] (previous %v)", q, got, last)
		}
		last = got
	}
	// On a large uniform sample the estimate converges to the quantile.
	big := make([]float64, 2001)
	for i := range big {
		big[i] = float64(i) / 2000
	}
	if got := quantile(big, 0.9); math.Abs(got-0.9) > 1e-3 {
		t.Errorf("p90 of uniform [0,1] = %v, want ≈ 0.9", got)
	}
	// Robust at a gap: 80 fast and 20 slow values put p90 among the slow
	// ones, and moving one value across the gap moves it by a fraction of
	// the gap, not all of it.
	gap := make([]float64, 100)
	for i := range gap {
		gap[i] = 100
		if i >= 88 {
			gap[i] = 200
		}
	}
	p := quantile(gap, 0.9)
	gap[87] = 200
	if d := quantile(gap, 0.9) - p; d <= 0 || d >= 50 {
		t.Errorf("one value across the gap moved p90 by %v, want a fraction of the 100 gap", d)
	}
	if xs[0] != 5 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
}

func TestScheduleDeterministicAndRated(t *testing.T) {
	plan := func(seed uint64) []arrival {
		s := splitmix64(seed)
		return schedule(10, 100*time.Second, s.float)
	}
	a, b := plan(3), plan(3)
	if len(a) != len(b) {
		t.Fatalf("same seed, different plans: %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) != 1000 {
		t.Errorf("rate 10/s over 100s gave %d arrivals, want 1000", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At || a[i].Index != i {
			t.Fatalf("arrival %d out of order: %v after %v", i, a[i], a[i-1])
		}
	}
	for i, x := range a {
		if lo := time.Duration(i) * 100 * time.Millisecond; x.At < lo || x.At >= lo+100*time.Millisecond {
			t.Fatalf("arrival %d at %v, outside its slot [%v, %v)", i, x.At, lo, lo+100*time.Millisecond)
		}
	}
	if c := plan(4); len(c) == len(a) && c[0] == a[0] {
		t.Error("different seeds gave the same plan")
	}
}

func TestGoodputAndLatencies(t *testing.T) {
	ms := time.Millisecond
	outs := []outcome{
		{Latency: 100 * ms, OK: true},
		{Latency: 500 * ms, OK: true}, // on the limit: counts
		{Latency: 501 * ms, OK: true}, // late
		{Latency: 10 * ms, OK: false}, // fast but failed
		{Latency: 300 * ms, OK: true},
	}
	if got := goodput(outs, 500*ms, 2*time.Second); got != 1.5 {
		t.Errorf("goodput = %v, want 1.5 (3 good verdicts over 2 s)", got)
	}
	got := latencies(outs, 5*time.Second)
	want := []float64{100, 500, 501, 5000, 300}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("latencies[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPlanWindowMixPerBlock(t *testing.T) {
	s := splitmix64(9)
	plan := planWindow(&s, 4, 2, 0) // 40 requests: two blocks
	if len(plan) != 40 {
		t.Fatalf("planned %d requests, want 40", len(plan))
	}
	for b := 0; b < 2; b++ {
		count := map[string]int{}
		for _, r := range plan[b*20 : (b+1)*20] {
			count[r.Class]++
		}
		for _, m := range mix {
			if count[m.class] != m.count {
				t.Errorf("block %d: %d %s requests, want %d", b, count[m.class], m.class, m.count)
			}
		}
	}
	seen := map[uint64]bool{}
	for _, r := range plan {
		if r.Spec.ChipSeed == 0 || seen[r.Spec.ChipSeed] {
			t.Fatalf("chip seed %d repeated or zero", r.Spec.ChipSeed)
		}
		seen[r.Spec.ChipSeed] = true
		if err := r.Spec.Validate(); err != nil {
			t.Fatalf("planned an invalid job: %v", err)
		}
	}
}

func TestSplitBlocksFitsWholeBlocks(t *testing.T) {
	for _, c := range []struct {
		total         time.Duration
		nominal, peak float64
		nom, pk       int
	}{
		{27 * time.Second, 5, 7, 4, 3},   // 16 s + 8.6 s
		{27 * time.Second, 2.5, 4, 2, 2}, // 16 s + 10 s
		{time.Second, 5, 7, 1, 1},        // never less than a block each
	} {
		nom, pk := splitBlocks(c.total, c.nominal, c.peak)
		if nom != c.nom || pk != c.pk {
			t.Errorf("splitBlocks(%v, %g, %g) = %d, %d; want %d, %d", c.total, c.nominal, c.peak, nom, pk, c.nom, c.pk)
		}
		if len(planWindow(new(splitmix64), c.nominal, nom, 0)) != nom*blockSize {
			t.Errorf("a window of %d blocks at %g/s does not hold %d requests", nom, c.nominal, nom*blockSize)
		}
	}
}

func TestAnotherMeasuresTheNearestWholeUnits(t *testing.T) {
	units := func(unit, budget time.Duration) int {
		n := 0
		for spent := time.Duration(0); another(spent, n, budget); spent += unit {
			n++
		}
		return n
	}
	for _, c := range []struct {
		unit time.Duration
		want int
	}{
		{9 * time.Second, 3},  // 27 s
		{10 * time.Second, 3}, // 30 s is nearer 27 s than 20 s
		{12 * time.Second, 2}, // 24 s is nearer than 36 s
		{18 * time.Second, 1}, // 18 s is as near 27 s as 36 s
		{40 * time.Second, 1}, // never fewer than one
	} {
		if got := units(c.unit, 27*time.Second); got != c.want {
			t.Errorf("%v units in 27 s: measured %d, want %d", c.unit, got, c.want)
		}
	}
}
