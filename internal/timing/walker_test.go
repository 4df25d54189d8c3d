package timing

import (
	"fmt"
	"math"
	"testing"

	"superpose/internal/netlist"
	"superpose/internal/trust"
)

// deepChain mirrors internal/sim/deepchain_test.go: an alternating
// NOT/BUF chain through the streaming builder — a depth hazard for any
// recursive walk.
func deepChain(t testing.TB, depth int) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilderSized("deeptiming", depth+4)
	in := b.InternString("a")
	if err := b.DefineInput(in); err != nil {
		t.Fatal(err)
	}
	prev := in
	for i := 0; i < depth; i++ {
		id := b.InternString(fmt.Sprintf("c%d", i))
		typ := netlist.Not
		if i%2 == 1 {
			typ = netlist.Buf
		}
		if err := b.DefineGate(id, typ, []int32{prev}); err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	b.MarkOutput(fmt.Sprintf("c%d", depth-1))
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// allGates returns every gate ID — the "everything toggled" stimulus
// under which PathDelay must reproduce static analysis exactly.
func allGates(n *netlist.Netlist) []int {
	ids := make([]int, n.NumGates())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func worstArrival(s *STA) float64 {
	worst := 0.0
	for _, a := range s.Arrival {
		if a > worst {
			worst = a
		}
	}
	return worst
}

// TestDeepChainPathDelay drives the 50k-deep chain through the walker:
// the full-toggle path delay must equal the STA's worst arrival (the sum
// of every gate delay down the chain), with no stack-depth hazard.
func TestDeepChainPathDelay(t *testing.T) {
	const depth = 50000
	n := deepChain(t, depth)
	m := NewModel(n, SAED90LikeDelays())

	w := NewPathWalker(n)
	defer w.Release()
	got := w.PathDelay(m.Delays(), allGates(n))
	want := worstArrival(Analyze(n, m.Delays()))
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("full-toggle path delay %v, want STA worst arrival %v", got, want)
	}

	// A prefix of the chain is a shorter sensitized path: exactly the
	// prefix's delay sum, unaffected by the untoggled remainder.
	prefix := allGates(n)[:depth/2]
	gotHalf := w.PathDelay(m.Delays(), prefix)
	if gotHalf >= got {
		t.Fatalf("half-chain path delay %v must be shorter than full %v", gotHalf, got)
	}
	var want2 float64
	for _, id := range prefix {
		want2 += m.DelayOf(id)
	}
	if math.Abs(gotHalf-want2) > 1e-6 {
		t.Fatalf("half-chain path delay %v, want %v", gotHalf, want2)
	}
}

// TestPathDelayMatchesSTAOnBenchmark checks walker/STA agreement on a
// real benchmark circuit, and that the walk is insensitive to the order
// the toggle set is presented in.
func TestPathDelayMatchesSTAOnBenchmark(t *testing.T) {
	inst, err := trust.Build(trust.Case{Benchmark: "s35932", Trojan: "T200"}, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	n := inst.Host
	m := NewModel(n, SAED90LikeDelays())
	w := NewPathWalker(n)
	defer w.Release()

	toggles := allGates(n)
	want := worstArrival(Analyze(n, m.Delays()))
	if got := w.PathDelay(m.Delays(), toggles); math.Abs(got-want) > 1e-6 {
		t.Fatalf("full-toggle path delay %v, want %v", got, want)
	}

	// Reversed presentation order: identical result (the walker sorts
	// into propagation order itself).
	rev := make([]int, len(toggles))
	for i, id := range toggles {
		rev[len(toggles)-1-i] = id
	}
	if got := w.PathDelay(m.Delays(), rev); math.Abs(got-want) > 1e-6 {
		t.Fatalf("reversed-order path delay %v, want %v", got, want)
	}
	for i, id := range rev { // input order must not be mutated
		if id != toggles[len(toggles)-1-i] {
			t.Fatal("PathDelay mutated the toggle slice")
		}
	}
}

// TestPathDelayDisjointSegments: two toggled islands do not see each
// other — an untoggled gate between them blocks arrival propagation.
func TestPathDelayDisjointSegments(t *testing.T) {
	n := deepChain(t, 64)
	m := NewModel(n, SAED90LikeDelays())
	w := NewPathWalker(n)
	defer w.Release()

	// Gate IDs along the chain are 0 (input), 1..64. Toggle two islands
	// separated by an untoggled gate: {1..10} and {12..40}. The second
	// island restarts from zero arrival at gate 12, so the walk's result
	// is the longer island's own delay sum, not the concatenation.
	var islandA, islandB []int
	for id := 1; id <= 10; id++ {
		islandA = append(islandA, id)
	}
	for id := 12; id <= 40; id++ {
		islandB = append(islandB, id)
	}
	sum := func(ids []int) float64 {
		var s float64
		for _, id := range ids {
			s += m.DelayOf(id)
		}
		return s
	}
	got := w.PathDelay(m.Delays(), append(append([]int{}, islandA...), islandB...))
	want := math.Max(sum(islandA), sum(islandB))
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("disjoint islands: got %v, want max(%v, %v)", got, sum(islandA), sum(islandB))
	}
}

// TestPathDelayEpochReuse: results must not bleed between calls — a gate
// seen in a previous walk is stale in the next, even across thousands of
// reuses of the same pooled walker.
func TestPathDelayEpochReuse(t *testing.T) {
	n := deepChain(t, 32)
	m := NewModel(n, SAED90LikeDelays())
	w := NewPathWalker(n)
	defer w.Release()

	full := w.PathDelay(m.Delays(), allGates(n))
	single := []int{16}
	for i := 0; i < 5000; i++ {
		if got := w.PathDelay(m.Delays(), single); got != m.DelayOf(16) {
			t.Fatalf("iteration %d: single-gate walk %v, want %v (stale arrival leaked)",
				i, got, m.DelayOf(16))
		}
	}
	if got := w.PathDelay(m.Delays(), allGates(n)); got != full {
		t.Fatalf("full walk after reuse %v, want %v", got, full)
	}
	if w.PathDelay(m.Delays(), nil) != 0 {
		t.Fatal("empty toggle set must have zero path delay")
	}
}
