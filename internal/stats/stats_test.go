package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should diverge")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntn(t *testing.T) {
	r := NewRNG(7)
	seen := make([]bool, 10)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("value %d never produced", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(99)
	const n = 200000
	var sum, ss float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		ss += x * x
	}
	mean := sum / n
	variance := ss/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Norm variance = %v, want ~1", variance)
	}
}

func TestForkDecorrelated(t *testing.T) {
	r := NewRNG(5)
	f := r.Fork()
	equal := 0
	for i := 0; i < 64; i++ {
		if r.Uint64() == f.Uint64() {
			equal++
		}
	}
	if equal > 0 {
		t.Errorf("forked stream matched parent %d times", equal)
	}
}

func TestPhiKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.841344746},
		{2, 0.977249868},
		{3, 0.998650102},
		{-1, 0.158655254},
		{1.632, 0.948656}, // the s38417-T100 @ 25% row of Table II
		{2.04, 0.979325},  // the s38417-T100 @ 20% row of Table II
	}
	for _, c := range cases {
		if got := Phi(c.x); math.Abs(got-c.want) > 1e-5 {
			t.Errorf("Phi(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestPhiInvRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		x := math.Mod(math.Abs(raw), 6) // limit to ±6 sigma
		if math.IsNaN(x) {
			return true
		}
		p := Phi(x)
		back := PhiInv(p)
		return math.Abs(back-x) < 1e-6 || p == 1 // Phi saturates near 1 beyond ~5.6σ in float64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if !math.IsInf(PhiInv(0), -1) || !math.IsInf(PhiInv(1), 1) {
		t.Error("PhiInv must saturate at the boundaries")
	}
}

func TestPhiMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return Phi(a) <= Phi(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Std-2.13809) > 1e-4 {
		t.Errorf("Std = %v", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}

	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 || empty.Std != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
	one := Summarize([]float64{3})
	if one.Std != 0 || one.Mean != 3 || one.Min != 3 || one.Max != 3 {
		t.Errorf("singleton summary = %+v", one)
	}
}

func TestBoolBalanced(t *testing.T) {
	r := NewRNG(123)
	trues := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if r.Bool() {
			trues++
		}
	}
	if trues < n/2-300 || trues > n/2+300 {
		t.Errorf("Bool produced %d trues of %d", trues, n)
	}
}

func TestMedianAndMAD(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("empty median should be NaN")
	}
	med, mad := MAD([]float64{1, 1, 1, 1, 9})
	if med != 1 || mad != 0 {
		t.Errorf("MAD of majority-identical sample = (%v, %v), want (1, 0)", med, mad)
	}
	med, mad = MAD([]float64{1, 2, 3, 4, 5})
	if med != 3 || mad != 1 {
		t.Errorf("MAD = (%v, %v), want (3, 1)", med, mad)
	}
}

func TestRejectOutliersMAD(t *testing.T) {
	// A 10× spike among consistent readings must be rejected; the order
	// of survivors is preserved.
	kept := RejectOutliersMAD([]float64{1.01, 0.99, 10.0, 1.0, 1.02}, 4)
	want := []float64{1.01, 0.99, 1.0, 1.02}
	if len(kept) != len(want) {
		t.Fatalf("kept %v", kept)
	}
	for i := range want {
		if kept[i] != want[i] {
			t.Fatalf("kept %v, want %v", kept, want)
		}
	}
	// Zero MAD (stuck tester): only the latched value survives.
	kept = RejectOutliersMAD([]float64{5, 5, 5, 7}, 4)
	if len(kept) != 3 || kept[0] != 5 {
		t.Errorf("stuck-sample rejection kept %v", kept)
	}
	// Tiny samples pass through untouched.
	if got := RejectOutliersMAD([]float64{1, 100}, 4); len(got) != 2 {
		t.Errorf("pair should pass through, got %v", got)
	}
}
