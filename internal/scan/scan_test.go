package scan

import (
	"strings"
	"testing"
	"testing/quick"

	"superpose/internal/netlist"
	"superpose/internal/stats"
)

// buildShiftCircuit makes a circuit with nFF flip-flops, one PI, and per-FF
// a BUF observer gate so every scan-cell toggle creates one combinational
// toggle:
//
//	INPUT(pi)
//	ffK = DFF(dK); obsK = BUF(ffK); dK = XOR(obsK, pi)
func buildShiftCircuit(t testing.TB, nFF int) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("shift")
	if _, err := b.AddInput("pi"); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < nFF; k++ {
		ff := name("ff", k)
		obs := name("obs", k)
		d := name("d", k)
		if _, err := b.AddDFF(ff, d); err != nil {
			t.Fatal(err)
		}
		if _, err := b.AddGate(obs, netlist.Buf, ff); err != nil {
			t.Fatal(err)
		}
		if _, err := b.AddGate(d, netlist.Xor, obs, "pi"); err != nil {
			t.Fatal(err)
		}
		b.MarkOutput(obs)
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func name(prefix string, k int) string {
	return prefix + "_" + string(rune('a'+k%26)) + string(rune('0'+k/26))
}

func TestConfigurePartition(t *testing.T) {
	n := buildShiftCircuit(t, 10)
	for chains := 1; chains <= 12; chains++ {
		c := Configure(n, chains)
		wantChains := chains
		if wantChains > 10 {
			wantChains = 10
		}
		if c.NumChains() != wantChains {
			t.Errorf("Configure(%d): %d chains", chains, c.NumChains())
		}
		total := 0
		seen := make(map[int]bool)
		for i := 0; i < c.NumChains(); i++ {
			for j, ff := range c.Chain(i) {
				total++
				if seen[ff] {
					t.Fatalf("cell %d appears twice", ff)
				}
				seen[ff] = true
				pos, ok := c.Position(ff)
				if !ok || pos.Chain != i || pos.Index != j {
					t.Errorf("Position(%d) = %+v, want {%d %d}", ff, pos, i, j)
				}
			}
		}
		if total != 10 {
			t.Errorf("Configure(%d) covers %d cells", chains, total)
		}
		// Balanced: lengths differ by at most one.
		ls := c.Lengths()
		min, max := ls[0], ls[0]
		for _, l := range ls {
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		if max-min > 1 {
			t.Errorf("Configure(%d): unbalanced lengths %v", chains, ls)
		}
	}
}

func TestConfigureClamps(t *testing.T) {
	n := buildShiftCircuit(t, 3)
	if c := Configure(n, 0); c.NumChains() != 1 {
		t.Error("numChains < 1 must clamp to 1")
	}
	if c := Configure(n, 100); c.NumChains() != 3 {
		t.Error("numChains > #FF must clamp")
	}
}

func TestPatternBasics(t *testing.T) {
	n := buildShiftCircuit(t, 6)
	c := Configure(n, 2)
	p := c.NewPattern()
	if p.TransitionCount() != 0 {
		t.Error("zero pattern has no transitions")
	}
	p.Scan[0] = []bool{false, true, true} // one transition at index 1
	p.Scan[1] = []bool{true, false, true} // transitions at 1 and 2
	if got := p.TransitionCount(); got != 3 {
		t.Errorf("TransitionCount = %d, want 3", got)
	}
	if p.TransitionAt(0, 0) {
		t.Error("cell 0 never launches")
	}
	if !p.TransitionAt(0, 1) || p.TransitionAt(0, 2) {
		t.Error("TransitionAt chain 0 wrong")
	}

	q := p.Clone()
	if !p.Equal(q) {
		t.Error("clone must be equal")
	}
	q.Scan[0][0] = true
	if p.Equal(q) {
		t.Error("modified clone must differ")
	}
	if p.Scan[0][0] {
		t.Error("Clone must not alias")
	}

	s := p.String()
	if !strings.Contains(s, "|") || !strings.Contains(s, "/") {
		t.Errorf("String = %q", s)
	}
}

func TestPatternEqualShapeMismatch(t *testing.T) {
	n := buildShiftCircuit(t, 4)
	c1 := Configure(n, 1)
	c2 := Configure(n, 2)
	if c1.NewPattern().Equal(c2.NewPattern()) {
		t.Error("different shapes must not be equal")
	}
}

func TestLOSLaunchActivityMatchesAdjacency(t *testing.T) {
	// Property: the scan cells toggling under LOS are exactly the cells at
	// adjacent opposite-bit positions (paper §IV-A transparency rule).
	n := buildShiftCircuit(t, 16)
	c := Configure(n, 2)
	e := NewEngine(c)
	rng := stats.NewRNG(11)

	for trial := 0; trial < 50; trial++ {
		p := c.RandomPattern(rng)
		e.Launch([]*Pattern{p}, LOS)
		toggled := make(map[int]bool)
		for _, id := range e.Toggles(0) {
			toggled[id] = true
		}
		for ci := 0; ci < c.NumChains(); ci++ {
			for j, ff := range c.Chain(ci) {
				want := p.TransitionAt(ci, j)
				if toggled[ff] != want {
					t.Fatalf("trial %d: cell chain %d idx %d toggle=%v want %v",
						trial, ci, j, toggled[ff], want)
				}
			}
		}
	}
}

func TestLOSObserverGatesFollowCells(t *testing.T) {
	n := buildShiftCircuit(t, 8)
	c := Configure(n, 1)
	e := NewEngine(c)
	p := c.NewPattern()
	p.Scan[0] = []bool{false, true, false, false, false, false, false, false}
	e.Launch([]*Pattern{p}, LOS)
	toggled := make(map[string]bool)
	for _, id := range e.Toggles(0) {
		toggled[n.NameOf(id)] = true
	}
	// Transitions at cells 1 and 2 (0→1 and 1→0); their BUF observers follow.
	for _, wantName := range []string{"ff_b0", "ff_c0", "obs_b0", "obs_c0"} {
		if !toggled[wantName] {
			t.Errorf("%s should toggle; toggles=%v", wantName, toggled)
		}
	}
	if toggled["ff_a0"] || toggled["obs_a0"] {
		t.Error("cell 0 must not toggle under LOS")
	}
	// d gates: d_k = XOR(obs_k, pi) toggles with obs_k.
	if !toggled["d_b0"] || !toggled["d_c0"] {
		t.Error("XOR D-gates must follow observers")
	}
}

func TestLOCCaptureSemantics(t *testing.T) {
	// Under LOC, frame 2 FF values are the D-pin responses of frame 1.
	// In the shift circuit d_k = XOR(ff_k, pi), so with pi=1 every cell
	// inverts at capture and all cells toggle; with pi=0 none do.
	n := buildShiftCircuit(t, 5)
	c := Configure(n, 1)
	e := NewEngine(c)

	p := c.NewPattern()
	p.PI[0] = true
	e.Launch([]*Pattern{p}, LOC)
	count := 0
	for _, id := range e.Toggles(0) {
		if n.Gates[id].Type == netlist.DFF {
			count++
		}
	}
	if count != 5 {
		t.Errorf("LOC with pi=1: %d cells toggled, want 5", count)
	}

	p.PI[0] = false
	e.Launch([]*Pattern{p}, LOC)
	if got := len(e.Toggles(0)); got != 0 {
		t.Errorf("LOC with pi=0: %d toggles, want 0", got)
	}
}

func TestBatchLanesMatchSingle(t *testing.T) {
	n := buildShiftCircuit(t, 12)
	c := Configure(n, 3)
	rng := stats.NewRNG(21)
	e := NewEngine(c)

	pats := make([]*Pattern, 64)
	for i := range pats {
		pats[i] = c.RandomPattern(rng)
	}
	e.Launch(pats, LOS)
	batchCounts := make([]int, 64)
	for i := range pats {
		batchCounts[i] = len(e.Toggles(uint(i)))
	}

	single := NewEngine(c)
	for i, p := range pats {
		single.Launch([]*Pattern{p}, LOS)
		if got := len(single.Toggles(0)); got != batchCounts[i] {
			t.Fatalf("lane %d: batch %d != single %d", i, batchCounts[i], got)
		}
	}
}

func TestLaunchErrorsAndStatePanics(t *testing.T) {
	n := buildShiftCircuit(t, 4)
	c := Configure(n, 1)
	e := NewEngine(c)
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f()
	}
	if _, _, err := e.Launch(nil, LOS); err == nil {
		t.Error("Launch(nil) should return an error")
	}
	mustPanic(func() { e.Toggles(0) })
	mustPanic(func() { e.Toggled(nil, nil) })
	pats := make([]*Pattern, 65)
	for i := range pats {
		pats[i] = c.NewPattern()
	}
	if _, _, err := e.Launch(pats, LOS); err == nil {
		t.Error("Launch with 65 patterns should return an error")
	}
}

func TestTransitionCountFlipProperty(t *testing.T) {
	// Property: flipping one interior bit changes the transition count by
	// -2, 0 or +2; flipping an end bit changes it by -1 or +1.
	n := buildShiftCircuit(t, 20)
	c := Configure(n, 1)
	rng := stats.NewRNG(5)
	f := func(idxRaw uint8) bool {
		p := c.RandomPattern(rng)
		before := p.TransitionCount()
		idx := int(idxRaw) % 20
		p.Scan[0][idx] = !p.Scan[0][idx]
		delta := p.TransitionCount() - before
		if idx == 0 || idx == 19 {
			return delta == -1 || delta == 1
		}
		return delta == -2 || delta == 0 || delta == 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModeString(t *testing.T) {
	if LOS.String() != "LOS" || LOC.String() != "LOC" {
		t.Error("mode names wrong")
	}
	if !strings.Contains(Mode(9).String(), "9") {
		t.Error("unknown mode must show number")
	}
}

func TestLOSSourcesMatchEngine(t *testing.T) {
	// The standalone source builder must agree with the Engine's toggles.
	n := buildShiftCircuit(t, 10)
	c := Configure(n, 2)
	e := NewEngine(c)
	rng := stats.NewRNG(77)
	for trial := 0; trial < 20; trial++ {
		p := c.RandomPattern(rng)
		f1, f2 := c.LOSSources(p)
		e.Launch([]*Pattern{p}, LOS)
		engineToggles := map[int]bool{}
		for _, id := range e.Toggles(0) {
			engineToggles[id] = true
		}
		// Simulate both frames independently and compare source-level
		// toggles of the scan cells.
		for _, ff := range n.FFs {
			want := engineToggles[ff]
			got := (f1[ff]^f2[ff])&1 != 0
			if got != want {
				t.Fatalf("trial %d: cell %s source toggle=%v engine=%v", trial, n.NameOf(ff), got, want)
			}
		}
	}
}

func TestFromOrderRoundTrip(t *testing.T) {
	// Property: rebuilding a configuration from its own Order yields the
	// same cell placement.
	n := buildShiftCircuit(t, 12)
	for _, chains := range []int{1, 3, 5} {
		c := Configure(n, chains)
		c2, err := FromOrder(n, c.Order())
		if err != nil {
			t.Fatal(err)
		}
		for _, ff := range n.FFs {
			p1, _ := c.Position(ff)
			p2, _ := c2.Position(ff)
			if p1 != p2 {
				t.Fatalf("cell %s moved: %+v vs %+v", n.NameOf(ff), p1, p2)
			}
		}
	}
	// Errors: bad IDs, duplicates, incomplete coverage.
	if _, err := FromOrder(n, [][]int{{0}}); err == nil {
		t.Error("non-FF gate must be rejected")
	}
	ff0 := n.FFs[0]
	if _, err := FromOrder(n, [][]int{{ff0, ff0}}); err == nil {
		t.Error("duplicate cell must be rejected")
	}
	if _, err := FromOrder(n, [][]int{{ff0}}); err == nil {
		t.Error("incomplete coverage must be rejected")
	}
}

func TestHiddenStatePinning(t *testing.T) {
	// A NoScan cell pinned to 1 must show as a constant 1 source in both
	// frames of every launch.
	b := netlist.NewBuilder("hid")
	if _, err := b.AddInput("pi"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddDFF("s0", "d0"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddNonScanDFF("h", "dh"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddGate("d0", netlist.Xor, "s0", "h"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddGate("dh", netlist.Xor, "h", "pi"); err != nil {
		t.Fatal(err)
	}
	b.MarkOutput("d0")
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := Configure(n, 1)
	if c.NumChains() != 1 || len(c.Chain(0)) != 1 {
		t.Fatalf("scan config must hold only s0: %v", c.Lengths())
	}
	e := NewEngine(c)
	h, _ := n.GateID("h")
	d0, _ := n.GateID("d0")
	s0, _ := n.GateID("s0")

	p := c.NewPattern()
	p.Scan[0][0] = true
	f1, f2, err := e.Launch([]*Pattern{p}, LOS)
	if err != nil {
		t.Fatal(err)
	}
	// Default hidden state 0: d0 = XOR(s0, 0) = s0 in both frames.
	if f1[d0] != f1[s0] || f2[d0] != f2[s0] {
		t.Error("hidden state must default to 0")
	}
	e.SetHiddenState(h, 1)
	f1, f2, err = e.Launch([]*Pattern{p}, LOS)
	if err != nil {
		t.Fatal(err)
	}
	if f1[h]&1 != 1 || f2[h]&1 != 1 {
		t.Error("hidden state must pin across both frames")
	}
	if f1[d0] == f1[s0] {
		t.Error("pinned hidden 1 must invert d0")
	}
}
