package trust

import (
	"testing"

	"superpose/internal/netlist"
	"superpose/internal/scan"
	"superpose/internal/sim"
	"superpose/internal/stats"
)

func TestGenerateSmall(t *testing.T) {
	n, err := Generate(Params{Name: "g1", PIs: 4, POs: 6, FFs: 12, Comb: 120, Levels: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := n.ComputeStats()
	if s.PIs != 4 || s.FFs != 12 || s.POs != 6 {
		t.Errorf("stats = %+v", s)
	}
	// Comb gates = requested + FF D-pin buffers.
	if s.Combinational != 120+12 {
		t.Errorf("comb = %d, want 132", s.Combinational)
	}
	if s.Depth < 3 {
		t.Errorf("depth = %d, too shallow", s.Depth)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{Name: "g", PIs: 3, POs: 3, FFs: 8, Comb: 60, Levels: 4, Seed: 7}
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumGates() != b.NumGates() {
		t.Fatal("gate counts differ")
	}
	for id := range a.Gates {
		if a.Gates[id].Type != b.Gates[id].Type || len(a.Gates[id].Fanin) != len(b.Gates[id].Fanin) {
			t.Fatal("same params+seed must reproduce the circuit")
		}
		for k := range a.Gates[id].Fanin {
			if a.Gates[id].Fanin[k] != b.Gates[id].Fanin[k] {
				t.Fatal("fanin wiring differs")
			}
		}
	}
	c, err := Generate(Params{Name: "g", PIs: 3, POs: 3, FFs: 8, Comb: 60, Levels: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for id := range a.Gates {
		if a.Gates[id].Type != c.Gates[id].Type {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ (type sequence identical)")
	}
}

func TestGenerateSimulates(t *testing.T) {
	n, err := Generate(Params{Name: "gsim", PIs: 5, POs: 5, FFs: 16, Comb: 200, Levels: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The circuit must be simulatable and non-constant on its outputs.
	probs := sim.SignalProbabilities(n, 64*16, 11)
	nonConst := 0
	for _, po := range n.POs {
		if probs[po] > 0 && probs[po] < 1 {
			nonConst++
		}
	}
	if nonConst == 0 {
		t.Error("all primary outputs constant — generator produced dead logic")
	}
}

func TestGenerateLaunchActivity(t *testing.T) {
	// A random LOS pattern must create combinational activity, not just
	// scan-cell toggles: the generated cloud must respond to cell changes.
	n, err := Generate(Params{Name: "glaunch", PIs: 4, POs: 4, FFs: 20, Comb: 200, Levels: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ch := scan.Configure(n, 2)
	e := scan.NewEngine(ch)
	rng := stats.NewRNG(13)
	p := ch.RandomPattern(rng)
	e.Launch([]*scan.Pattern{p}, scan.LOS)
	total := len(e.Toggles(0))
	cells := 0
	for _, id := range e.Toggles(0) {
		if n.Gates[id].Type == netlist.DFF {
			cells++
		}
	}
	if total <= cells {
		t.Errorf("no combinational activity: %d toggles, %d are cells", total, cells)
	}
}

func TestGenerateRejectsImpossible(t *testing.T) {
	if _, err := Generate(Params{Name: "bad", PIs: 1, POs: 1, FFs: 1, Comb: 1, Levels: 5}); err == nil {
		t.Error("expected error for Comb < Levels")
	}
}

func TestSuiteShape(t *testing.T) {
	suite := Suite(1.0)
	if len(suite) != 3 {
		t.Fatalf("suite = %d benchmarks", len(suite))
	}
	trojans := 0
	for _, b := range suite {
		trojans += len(b.Trojans)
	}
	if trojans != 5 {
		t.Errorf("suite has %d trojan variants, want 5", trojans)
	}
	if len(Cases()) != 5 {
		t.Error("Cases must list 5 entries")
	}
	if Cases()[0].String() != "s35932-T200" {
		t.Errorf("first case = %s", Cases()[0])
	}
	if len(Names()) != 5 {
		t.Error("Names must list 5 entries")
	}
}

func TestBuildCaseSmallScale(t *testing.T) {
	// Scale 0.02 keeps the test fast while exercising the whole pipeline.
	inst, err := Build(Case{"s38417", "T100"}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Host == nil || inst.Infected == nil {
		t.Fatal("incomplete instance")
	}
	if len(inst.TrojanGates) < 3 {
		t.Errorf("trojan gates = %d, want >= 3 (3 taps)", len(inst.TrojanGates))
	}
	// Host IDs preserved.
	for id := 0; id < inst.Host.NumGates(); id++ {
		if inst.Host.NameOf(id) != inst.Infected.NameOf(id) {
			t.Fatal("host IDs not preserved in infected netlist")
		}
	}
}

func TestBuildUnknownCase(t *testing.T) {
	if _, err := Build(Case{"s99999", "T100"}, 0.05); err == nil {
		t.Error("unknown benchmark must error")
	}
	if _, err := Build(Case{"s35932", "T777"}, 0.05); err == nil {
		t.Error("unknown trojan must error")
	}
}

func TestScaledParams(t *testing.T) {
	p := Params{PIs: 100, POs: 100, FFs: 100, Comb: 1000, Levels: 5, Scale: 0.1}.scaled()
	if p.PIs != 10 || p.Comb != 100 {
		t.Errorf("scaled = %+v", p)
	}
	// Scale never drops a dimension to zero.
	q := Params{PIs: 3, POs: 3, FFs: 3, Comb: 30, Levels: 3, Scale: 0.01}.scaled()
	if q.PIs < 1 || q.POs < 1 || q.FFs < 1 || q.Comb < 1 {
		t.Errorf("zero dimension after scaling: %+v", q)
	}
}

func TestTriggerIsRarelyActive(t *testing.T) {
	// The defining Trojan property: under random stimuli the trigger
	// almost never fires.
	inst, err := Build(Case{"s38417", "T200"}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	probs := sim.SignalProbabilities(inst.Infected, 64*64, 77)
	if p := probs[inst.TriggerOut]; p > 0.05 {
		t.Errorf("trigger fires with probability %v — not a stealthy Trojan", p)
	}
}

func TestAllCasesBuildAtTestScale(t *testing.T) {
	// Every Table I case must materialize cleanly at a reduced scale.
	for _, c := range Cases() {
		inst, err := Build(c, 0.05)
		if err != nil {
			t.Errorf("%s: %v", c, err)
			continue
		}
		hostStats := inst.Host.ComputeStats()
		if hostStats.FFs < 10 {
			t.Errorf("%s: host too small: %v", c, hostStats)
		}
		if len(inst.TrojanGates) == 0 {
			t.Errorf("%s: no trojan gates", c)
		}
	}
}

// TestSuiteDeterminismPinned pins the exact structure of the generated
// suite: a change to the generator's algorithm or seeds silently changes
// every published number in EXPERIMENTS.md, so it must fail a test first.
func TestSuiteDeterminismPinned(t *testing.T) {
	// Structural fingerprint: FNV-1a over the gate list of each host.
	fingerprint := func(c Case) uint64 {
		inst, err := Build(c, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		h := uint64(1469598103934665603)
		mix := func(v uint64) {
			h ^= v
			h *= 1099511628211
		}
		for id, g := range inst.Infected.Gates {
			mix(uint64(id))
			mix(uint64(g.Type))
			for _, f := range g.Fanin {
				mix(uint64(f))
			}
		}
		return h
	}
	pinned := map[string]uint64{}
	for _, c := range Cases() {
		pinned[c.String()] = fingerprint(c)
	}
	// Regenerate: identical.
	for _, c := range Cases() {
		if got := fingerprint(c); got != pinned[c.String()] {
			t.Errorf("%s: generation not deterministic", c)
		}
	}
}

func TestGateMixRoughlyMatchesWeights(t *testing.T) {
	// The generator's type distribution should track the declared mix
	// within sampling tolerance: NAND-dominant, XOR-class rare.
	n, err := Generate(Params{Name: "mix", PIs: 8, POs: 8, FFs: 40, Comb: 4000, Levels: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := n.ComputeStats()
	frac := func(t netlist.GateType) float64 {
		return float64(s.ByType[t]) / 4000
	}
	if frac(netlist.Nand) < 0.15 || frac(netlist.Nand) > 0.33 {
		t.Errorf("NAND fraction = %.3f", frac(netlist.Nand))
	}
	if frac(netlist.Xor)+frac(netlist.Xnor) > 0.15 {
		t.Errorf("XOR-class fraction = %.3f too high", frac(netlist.Xor)+frac(netlist.Xnor))
	}
	// BUFs include the FF D-pin drivers; subtract those.
	bufFrac := float64(s.ByType[netlist.Buf]-40) / 4000
	if bufFrac > 0.10 {
		t.Errorf("BUF fraction = %.3f too high", bufFrac)
	}
}
