package core

import (
	"math"
	"testing"

	"superpose/internal/atpg"
	"superpose/internal/logic"
	"superpose/internal/power"
	"superpose/internal/scan"
	"superpose/internal/sim"
	"superpose/internal/tester"
	"superpose/internal/trust"
)

// The exhaustive cross-check: on every zoo circuit small enough to
// brute-force (≤ 12 stimulus bits), enumerate ALL input patterns and
// require the production stack — the PPSFP launches behind the golden
// engine and the device, the sweep session, the fault simulator — to be
// bit-identical (IEEE-754 bit patterns for every float) to test-local
// oracles built on the per-gate sim.Simulator, across LOS/LOC
// application and tester presets. Nothing is sampled; a single divergent
// lane anywhere in the space fails.

// exhaustiveZoo lists the brute-forceable circuits: generated multi-level
// netlists whose scan bits + PIs stay ≤ 12.
func exhaustiveZoo(t testing.TB) []*trust.Params {
	t.Helper()
	return []*trust.Params{
		{Name: "xz-narrow", PIs: 2, POs: 3, FFs: 6, Comb: 60, Levels: 4, Seed: 1},
		{Name: "xz-wide", PIs: 4, POs: 4, FFs: 8, Comb: 110, Levels: 3, Seed: 2},
		{Name: "xz-deep", PIs: 2, POs: 2, FFs: 10, Comb: 150, Levels: 6, Seed: 3},
	}
}

// allPatterns enumerates every assignment of the configuration's scan
// bits and PIs.
func allPatterns(t testing.TB, ch *scan.Chains) []*scan.Pattern {
	t.Helper()
	nScan := 0
	for i := 0; i < ch.NumChains(); i++ {
		nScan += len(ch.Chain(i))
	}
	nVars := nScan + len(ch.Netlist().PIs)
	if nVars > 12 {
		t.Fatalf("circuit too large for exhaustive enumeration (%d vars)", nVars)
	}
	pats := make([]*scan.Pattern, 0, 1<<nVars)
	for v := 0; v < 1<<nVars; v++ {
		p := ch.NewPattern()
		k := 0
		for c := 0; c < ch.NumChains(); c++ {
			for j := range p.Scan[c] {
				p.Scan[c][j] = v&(1<<k) != 0
				k++
			}
		}
		for i := range p.PI {
			p.PI[i] = v&(1<<k) != 0
			k++
		}
		pats = append(pats, p)
	}
	return pats
}

// exhaustiveTesters is the tester-preset axis of the zoo suites.
func exhaustiveTesters(t testing.TB) []struct {
	name string
	cfg  tester.Config
} {
	t.Helper()
	combined, err := tester.Preset("combined", 13)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		cfg  tester.Config
	}{{"clean", tester.Config{}}, {"combined", combined}}
}

// newExhaustiveStack builds a full measurement stack over its own die.
// Two calls with the same arguments yield identically seeded twins, so
// a production path on one and an oracle on the other see identical
// noise and tester-fault streams.
func newExhaustiveStack(t testing.TB, ch *scan.Chains, mode scan.Mode, testerCfg tester.Config) *Evaluator {
	t.Helper()
	n := ch.Netlist()
	lib := power.SAED90Like()
	chip := power.Manufacture(n, lib, power.ThreeSigmaIntra(0.12), 41)
	dev, err := NewDeviceFromChains(chip, ch, mode)
	if err != nil {
		t.Fatal(err)
	}
	if testerCfg.Enabled() {
		dev.SetFaultModel(tester.New(testerCfg))
		dev.SetAcquisition(RobustAcquisition())
	}
	return NewEvaluatorFromChains(n, lib, dev, ch, mode)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameReading(a, b Reading) bool {
	return sameBits(a.Observed, b.Observed) && sameBits(a.Nominal, b.Nominal) && sameBits(a.RPD, b.RPD)
}

// referenceFrames is the launch oracle: the two frames of up to 64
// patterns (pattern i on lane i) through the per-gate sim.Simulator,
// with the frame sources built straight from the scan semantics — LOS
// frame 1 is the one-shift-earlier state (cell 0 pinned), LOC frame 2
// re-captures every scannable cell's frame-1 D pin, PIs hold across
// both frames. Hidden (NoScan) cells stay zero, as they do on a stack
// that never pins them. It also returns the frame-2 sources, which the
// fault oracle re-simulates.
func referenceFrames(ch *scan.Chains, pats []*scan.Pattern, mode scan.Mode) (f1, f2, src2 []logic.Word) {
	n := ch.Netlist()
	src := make([]logic.Word, n.NumGates())
	set := func(id, lane int, v bool) {
		if v {
			src[id] |= logic.Word(1) << uint(lane)
		} else {
			src[id] &^= logic.Word(1) << uint(lane)
		}
	}
	for lane, p := range pats {
		for pi, id := range n.PIs {
			set(id, lane, p.PI[pi])
		}
		for c := 0; c < ch.NumChains(); c++ {
			for j, ff := range ch.Chain(c) {
				if mode == scan.LOS && j > 0 {
					set(ff, lane, p.Scan[c][j-1])
				} else {
					set(ff, lane, p.Scan[c][j])
				}
			}
		}
	}
	s := sim.New(n)
	defer s.Release()
	f1 = append([]logic.Word(nil), s.Run(src)...)
	switch mode {
	case scan.LOS:
		for lane, p := range pats {
			for c := 0; c < ch.NumChains(); c++ {
				for j, ff := range ch.Chain(c) {
					set(ff, lane, p.Scan[c][j])
				}
			}
		}
	case scan.LOC:
		for _, ff := range n.FFs {
			if !n.IsNoScan(ff) {
				src[ff] = f1[n.Gates[ff].Fanin[0]]
			}
		}
	}
	f2 = append([]logic.Word(nil), s.Run(src)...)
	return f1, f2, src
}

// referenceToggled returns the oracle's sparse toggle encoding.
func referenceToggled(ch *scan.Chains, pats []*scan.Pattern, mode scan.Mode) ([]int, []logic.Word) {
	f1, f2, _ := referenceFrames(ch, pats, mode)
	return sim.AppendToggled(f1, f2, nil, nil)
}

// referenceMeasureBatch is Evaluator.MeasureBatch with both launches —
// the device's physical one and the golden model's — taken from the
// oracle instead of the PPSFP engine. Everything after the launch (the
// reading assembler, the acquisition policy, tester faults, calibration
// and drift scaling) is the production code, so a twin stack measured
// through it must agree with MeasureBatch bit for bit.
func referenceMeasureBatch(ev *Evaluator, pats []*scan.Pattern) []Reading {
	var out []Reading
	d := ev.dev
	for start := 0; start < len(pats); start += 64 {
		chunk := pats[start:min(start+64, len(pats))]
		out = append(out, ev.readLanes(len(chunk), false,
			func() []float64 {
				pids, pmasks := referenceToggled(d.eng.Chains(), chunk, d.mode)
				return d.measureToggled(pids, pmasks, len(chunk), patternKeys(chunk))
			},
			func() ([]int, []logic.Word) { return referenceToggled(ev.chains, chunk, ev.mode) })...)
	}
	return out
}

// referenceDetect is the fault-simulation oracle: the good machine from
// referenceFrames (LOS), then a full re-simulation of the capture frame
// per fault with the site forced to its initial value (RunForced),
// diffed at every primary output and flip-flop D pin.
func referenceDetect(ch *scan.Chains, pats []*scan.Pattern, faults []atpg.Fault) []logic.Word {
	n := ch.Netlist()
	good1, good2, src2 := referenceFrames(ch, pats, scan.LOS)
	obs := append([]int(nil), n.POs...)
	for _, ff := range n.FFs {
		obs = append(obs, n.Gates[ff].Fanin[0])
	}
	laneMask := logic.AllOne
	if len(pats) < 64 {
		laneMask = logic.Word(1)<<uint(len(pats)) - 1
	}
	s := sim.New(n)
	defer s.Release()
	out := make([]logic.Word, len(faults))
	for i, f := range faults {
		initial := logic.AllZero
		if f.Dir == atpg.SlowToFall {
			initial = logic.AllOne
		}
		launch := ^(good1[f.Net] ^ initial) & laneMask
		if launch == 0 {
			continue
		}
		faulty2 := s.RunForced(src2, f.Net, initial)
		var diff logic.Word
		for _, o := range obs {
			diff |= good2[o] ^ faulty2[o]
		}
		out[i] = diff & launch
	}
	return out
}

// TestExhaustiveEngineEquivalence sweeps the zoo × LOS/LOC × tester
// presets and, for every pattern in the full input space, requires
// bit-identical Readings (observed, nominal and RPD) from MeasureBatch
// and from referenceMeasureBatch on an identically seeded twin stack.
// The batch is deliberately fed in one call: the 64-lane chunking
// inside exercises full chunks plus the ragged final chunk of each
// space.
func TestExhaustiveEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full input-space enumeration")
	}
	for _, params := range exhaustiveZoo(t) {
		n, err := trust.Generate(*params)
		if err != nil {
			t.Fatal(err)
		}
		ch := scan.Configure(n, 2)
		pats := allPatterns(t, ch)
		for _, mode := range []scan.Mode{scan.LOS, scan.LOC} {
			for _, preset := range exhaustiveTesters(t) {
				space := pats
				if preset.cfg.Enabled() {
					// The faulty-tester regime multiplies every reading
					// by the robust policy's repeats and retries; a slice
					// of the space keeps the suite fast while still
					// covering partial-lane chunk shapes (257 % 64 = 1).
					space = pats[:min(len(pats), 257)]
				}
				want := referenceMeasureBatch(newExhaustiveStack(t, ch, mode, preset.cfg), space)
				got := newExhaustiveStack(t, ch, mode, preset.cfg).MeasureBatch(space)
				for i := range want {
					if !sameReading(got[i], want[i]) {
						t.Fatalf("%s %v %s pattern %d: ppsfp %+v, reference %+v",
							n.Name, mode, preset.name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestExhaustiveFaultDetectionEquivalence brute-forces fault simulation:
// for every zoo circuit, every 64-pattern chunk of the full input space,
// and every collapsed fault, the PPSFP cone propagator's detection word
// must equal the RunForced oracle's.
func TestExhaustiveFaultDetectionEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full input-space enumeration")
	}
	for _, params := range exhaustiveZoo(t) {
		n, err := trust.Generate(*params)
		if err != nil {
			t.Fatal(err)
		}
		ch := scan.Configure(n, 2)
		pats := allPatterns(t, ch)
		reps, _ := atpg.Collapse(n, atpg.FaultList(n))
		fs := atpg.NewFaultSimulator(ch)

		for start := 0; start < len(pats); start += 64 {
			end := min(start+64, len(pats))
			want := referenceDetect(ch, pats[start:end], reps)
			got := fs.DetectBatch(pats[start:end], reps)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s chunk %d fault %v: ppsfp %016x, reference %016x",
						n.Name, start/64, reps[i], got[i], want[i])
				}
			}
		}
	}
}

// TestExhaustiveSweepEquivalence holds the sweep session to the
// clone-and-measure reference over the zoo: every pattern of each
// circuit's input space serves as a base on the ideal tester (a slice
// of them under the combined preset), every stimulus bit is a
// candidate, and each base is followed by one accepted climb step
// (Advance) — LOS and LOC, bit-identical Readings per lane plus
// identical acquisition and tester accounting (see sweepTwinWalk).
func TestExhaustiveSweepEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full input-space enumeration")
	}
	for _, params := range exhaustiveZoo(t) {
		n, err := trust.Generate(*params)
		if err != nil {
			t.Fatal(err)
		}
		ch := scan.Configure(n, 2)
		pats := allPatterns(t, ch)
		for _, mode := range []scan.Mode{scan.LOS, scan.LOC} {
			for _, preset := range exhaustiveTesters(t) {
				bases := pats
				if preset.cfg.Enabled() {
					bases = pats[:min(len(pats), 65)]
				}
				label := n.Name + " " + mode.String() + " " + preset.name
				sweepTwinWalk(t, label,
					newExhaustiveStack(t, ch, mode, preset.cfg),
					newExhaustiveStack(t, ch, mode, preset.cfg),
					bases, 1)
			}
		}
	}
}

// TestExhaustiveNominalPricingEquivalence prices every pattern of the
// space through the production path — the engine's sparse toggle
// encoding and the sparse lane kernel — and as a sum over the oracle's
// per-pattern toggle list, and compares the IEEE-754 bit patterns — the
// FP addition order of the pricing loops is part of the engine contract,
// so even a benign reassociation would fail here.
func TestExhaustiveNominalPricingEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full input-space enumeration")
	}
	lib := power.SAED90Like()
	for _, params := range exhaustiveZoo(t) {
		n, err := trust.Generate(*params)
		if err != nil {
			t.Fatal(err)
		}
		ch := scan.Configure(n, 2)
		pats := allPatterns(t, ch)
		model := power.NewModel(n, lib)

		for _, mode := range []scan.Mode{scan.LOS, scan.LOC} {
			eng := scan.NewEngine(ch)
			var ids []int
			var masks []logic.Word
			for start := 0; start < len(pats); start += 64 {
				end := min(start+64, len(pats))
				batch := pats[start:end]
				if _, _, err := eng.Launch(batch, mode); err != nil {
					t.Fatal(err)
				}
				ids, masks = eng.Toggled(ids, masks)
				got := model.NominalLanesSparse(ids, masks, len(batch), nil)
				f1, f2, _ := referenceFrames(ch, batch, mode)
				for i := range batch {
					want := nominalSum(model, sim.ToggleSet(f1, f2, uint(i)))
					if !sameBits(got[i], want) {
						t.Fatalf("%s %v pattern %d: nominal %x, reference %x",
							n.Name, mode, start+i, math.Float64bits(got[i]), math.Float64bits(want))
					}
				}
			}
			eng.Close()
		}
	}
}
