package sim

import (
	"math"
	"testing"
	"testing/quick"

	"superpose/internal/logic"
	"superpose/internal/netlist"
)

// buildGateZoo returns a netlist exercising every gate type:
//
//	and=AND(a,b) nand=NAND(a,b) or=OR(a,b) nor=NOR(a,b)
//	xor=XOR(a,b) xnor=XNOR(a,b) not=NOT(a) buf=BUF(b)
//	and3=AND(a,b,c)
func buildGateZoo(t testing.TB) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("zoo")
	for _, in := range []string{"a", "b", "c"} {
		if _, err := b.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	gates := []struct {
		name string
		typ  netlist.GateType
		in   []string
	}{
		{"g_and", netlist.And, []string{"a", "b"}},
		{"g_nand", netlist.Nand, []string{"a", "b"}},
		{"g_or", netlist.Or, []string{"a", "b"}},
		{"g_nor", netlist.Nor, []string{"a", "b"}},
		{"g_xor", netlist.Xor, []string{"a", "b"}},
		{"g_xnor", netlist.Xnor, []string{"a", "b"}},
		{"g_not", netlist.Not, []string{"a"}},
		{"g_buf", netlist.Buf, []string{"b"}},
		{"g_and3", netlist.And, []string{"a", "b", "c"}},
	}
	for _, g := range gates {
		if _, err := b.AddGate(g.name, g.typ, g.in...); err != nil {
			t.Fatal(err)
		}
		b.MarkOutput(g.name)
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestGateFunctions(t *testing.T) {
	n := buildGateZoo(t)
	s := New(n)
	src := s.SourceWords()
	a, _ := n.GateID("a")
	b, _ := n.GateID("b")
	c, _ := n.GateID("c")

	// Lanes 0..7 enumerate all (a,b,c) combinations.
	var wa, wb, wc logic.Word
	for lane := uint(0); lane < 8; lane++ {
		if lane&1 != 0 {
			wa |= 1 << lane
		}
		if lane&2 != 0 {
			wb |= 1 << lane
		}
		if lane&4 != 0 {
			wc |= 1 << lane
		}
	}
	src[a], src[b], src[c] = wa, wb, wc
	vals := s.Run(src)

	check := func(name string, f func(a, b, c bool) bool) {
		t.Helper()
		id, ok := n.GateID(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		for lane := uint(0); lane < 8; lane++ {
			av, bv, cv := lane&1 != 0, lane&2 != 0, lane&4 != 0
			want := f(av, bv, cv)
			got := vals[id]&(1<<lane) != 0
			if got != want {
				t.Errorf("%s(a=%v,b=%v,c=%v) = %v, want %v", name, av, bv, cv, got, want)
			}
		}
	}
	check("g_and", func(a, b, _ bool) bool { return a && b })
	check("g_nand", func(a, b, _ bool) bool { return !(a && b) })
	check("g_or", func(a, b, _ bool) bool { return a || b })
	check("g_nor", func(a, b, _ bool) bool { return !(a || b) })
	check("g_xor", func(a, b, _ bool) bool { return a != b })
	check("g_xnor", func(a, b, _ bool) bool { return a == b })
	check("g_not", func(a, _, _ bool) bool { return !a })
	check("g_buf", func(_, b, _ bool) bool { return b })
	check("g_and3", func(a, b, c bool) bool { return a && b && c })
}

// TestParallelLanesIndependent verifies that the 64 lanes of a word never
// interfere: simulating patterns together equals simulating them one at a
// time.
func TestParallelLanesIndependent(t *testing.T) {
	n := buildGateZoo(t)
	s := New(n)
	f := func(wa, wb, wc uint64) bool {
		src := s.SourceWords()
		a, _ := n.GateID("a")
		b, _ := n.GateID("b")
		c, _ := n.GateID("c")
		src[a], src[b], src[c] = logic.Word(wa), logic.Word(wb), logic.Word(wc)
		batch := append([]logic.Word(nil), s.Run(src)...)

		single := New(n)
		ssrc := single.SourceWords()
		for lane := uint(0); lane < 64; lane++ {
			var va, vb, vc logic.Word
			if wa&(1<<lane) != 0 {
				va = logic.AllOne
			}
			if wb&(1<<lane) != 0 {
				vb = logic.AllOne
			}
			if wc&(1<<lane) != 0 {
				vc = logic.AllOne
			}
			ssrc[a], ssrc[b], ssrc[c] = va, vb, vc
			sv := single.Run(ssrc)
			for id := range sv {
				want := sv[id]&1 != 0
				got := batch[id]&(1<<lane) != 0
				if want != got {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestToggleSetAndCount(t *testing.T) {
	n := buildGateZoo(t)
	s := New(n)
	src := s.SourceWords()
	a, _ := n.GateID("a")
	b, _ := n.GateID("b")

	// Frame 1: a=0 b=0; frame 2: a=1 b=0 (lane 0).
	frame1 := append([]logic.Word(nil), s.Run(src)...)
	src[a] = 1
	frame2 := append([]logic.Word(nil), s.Run(src)...)

	toggles := ToggleSet(frame1, frame2, 0)
	want := map[string]bool{
		"a": true, "g_or": true, "g_nor": true,
		"g_xor": true, "g_xnor": true, "g_not": true,
		// g_and stays 0 (b=0), g_nand stays 1 (b=0 controls),
		// g_buf follows b, g_and3 stays 0.
	}
	got := make(map[string]bool)
	for _, id := range toggles {
		got[n.NameOf(id)] = true
	}
	for name := range want {
		if !got[name] {
			t.Errorf("expected %s to toggle", name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("unexpected toggle on %s", name)
		}
	}
	_ = b

	// The sparse encoding lists exactly the toggled nets, ascending, with
	// their frame XOR as the lane mask.
	ids, masks := AppendToggled(frame1, frame2, nil, nil)
	if len(ids) != len(toggles) {
		t.Fatalf("AppendToggled lists %d nets, want %d", len(ids), len(toggles))
	}
	for k, id := range ids {
		if id != toggles[k] || masks[k] != frame1[id]^frame2[id] {
			t.Errorf("AppendToggled entry %d = (%d, %#x), want (%d, %#x)",
				k, id, masks[k], toggles[k], frame1[toggles[k]]^frame2[toggles[k]])
		}
	}
}

func TestSignalProbabilities(t *testing.T) {
	// p(and)=1/4, p(or)=3/4, p(xor)=1/2 under random inputs.
	n := buildGateZoo(t)
	probs := SignalProbabilities(n, 64*256, 7)
	check := func(name string, want, tol float64) {
		t.Helper()
		id, _ := n.GateID(name)
		if math.Abs(probs[id]-want) > tol {
			t.Errorf("p(%s) = %v, want %v±%v", name, probs[id], want, tol)
		}
	}
	check("g_and", 0.25, 0.02)
	check("g_or", 0.75, 0.02)
	check("g_xor", 0.50, 0.02)
	check("g_and3", 0.125, 0.02)
	check("a", 0.5, 0.02)
}

func TestSignalProbabilitiesDeterministic(t *testing.T) {
	n := buildGateZoo(t)
	p1 := SignalProbabilities(n, 128, 99)
	p2 := SignalProbabilities(n, 128, 99)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same seed must give identical probabilities")
		}
	}
}

func TestSignalProbabilitiesDefaultPatterns(t *testing.T) {
	n := buildGateZoo(t)
	p := SignalProbabilities(n, 0, 3) // 0 rounds up to one word
	if len(p) != n.NumGates() {
		t.Fatalf("len = %d", len(p))
	}
}

func TestSnapshotIsolation(t *testing.T) {
	n := buildGateZoo(t)
	s := New(n)
	src := s.SourceWords()
	a, _ := n.GateID("a")
	src[a] = logic.AllOne
	s.Run(src)
	snap := s.Snapshot()
	src[a] = 0
	s.Run(src)
	if snap[a] != logic.AllOne {
		t.Error("Snapshot must not alias live values")
	}
}

func BenchmarkRunZoo(b *testing.B) {
	n := buildGateZoo(b)
	s := New(n)
	src := s.SourceWords()
	a, _ := n.GateID("a")
	src[a] = 0xdeadbeef
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(src)
	}
}

func TestRunForcedOverridesNet(t *testing.T) {
	n := buildGateZoo(t)
	s := New(n)
	src := s.SourceWords()
	a, _ := n.GateID("a")
	b, _ := n.GateID("b")
	src[a], src[b] = logic.AllOne, logic.AllOne

	// Force the AND gate to 0 and check the forced net holds the value
	// while unrelated gates evaluate normally.
	gAnd, _ := n.GateID("g_and")
	vals := s.RunForced(src, gAnd, logic.AllZero)
	if vals[gAnd] != logic.AllZero {
		t.Error("forced net must hold the forced value")
	}
	gOr, _ := n.GateID("g_or")
	if vals[gOr] != logic.AllOne {
		t.Error("unrelated gates must evaluate normally")
	}

	// Forcing a source works too.
	vals = s.RunForced(src, a, logic.AllZero)
	if vals[a] != logic.AllZero {
		t.Error("forced source must hold the forced value")
	}
	gNot, _ := n.GateID("g_not")
	if vals[gNot] != logic.AllOne {
		t.Error("NOT of forced-0 source must be 1")
	}
}

func TestRunForcedPropagates(t *testing.T) {
	// d = NOT(m), m = AND(a,b): forcing m flips d regardless of sources.
	b := netlist.NewBuilder("chain2")
	if _, err := b.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddInput("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddGate("m", netlist.And, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddGate("d", netlist.Not, "m"); err != nil {
		t.Fatal(err)
	}
	b.MarkOutput("d")
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(n)
	src := s.SourceWords()
	m, _ := n.GateID("m")
	d, _ := n.GateID("d")
	vals := s.RunForced(src, m, logic.AllOne)
	if vals[d] != logic.AllZero {
		t.Error("fault effect must propagate downstream of the forced net")
	}
}
