package core

import (
	"fmt"
	"math"
	"testing"

	"superpose/internal/netlist"
	"superpose/internal/power"
	"superpose/internal/scan"
	"superpose/internal/stats"
	"superpose/internal/tester"
	"superpose/internal/trust"
)

// The sweep equivalence suite: the single-flip sweep engine must be
// bit-identical to the clone-and-measure candidate loop it replaced in
// the adaptive climb — materialize every single-flip clone of the base
// and measure it through Evaluator.MeasureBatch. That loop survives
// here, as the oracle of sweepTwinWalk, and is held to the sweep under
// every measurement regime the flow supports: same Readings, same
// acquisition and tester-fault accounting, same stream state after the
// walk.

// sweepEquivConfig is one measurement regime of the equivalence matrix.
type sweepEquivConfig struct {
	name       string
	mode       scan.Mode
	infected   bool
	noiseSigma float64
	regime     string // tester.Preset name; "" = ideal tester
	robust     bool   // RobustAcquisition instead of Naive
	repeats    int    // >0: a naive policy with this many repeats
	drift      bool   // enable drift compensation on the evaluator
	calibrate  bool
}

func sweepEquivMatrix() []sweepEquivConfig {
	return []sweepEquivConfig{
		{name: "los-clean-noiseless", mode: scan.LOS, infected: true, calibrate: true},
		{name: "loc-clean-noiseless", mode: scan.LOC, infected: true, calibrate: true},
		{name: "los-goldenchip", mode: scan.LOS, infected: false},
		{name: "los-noise-repeats", mode: scan.LOS, infected: true,
			noiseSigma: 0.02, repeats: 5, calibrate: true},
		{name: "loc-noise-repeats", mode: scan.LOC, infected: true,
			noiseSigma: 0.02, repeats: 3},
		{name: "los-combined-robust", mode: scan.LOS, infected: true,
			noiseSigma: 0.01, regime: "combined", robust: true, calibrate: true},
		{name: "los-combined-robust-drift", mode: scan.LOS, infected: true,
			noiseSigma: 0.01, regime: "combined", robust: true, drift: true, calibrate: true},
		{name: "los-spikes-naive", mode: scan.LOS, infected: true,
			noiseSigma: 0.02, regime: "spikes", calibrate: true},
	}
}

// sweepEquivStack builds the evaluator of one regime on a fresh device
// and returns it with the climb's seed pattern. Measurement consumes
// chip-noise and tester-fault streams, so each side of a comparison
// needs its own stack; two calls build identically seeded twins.
func sweepEquivStack(t testing.TB, cfg sweepEquivConfig) (*Evaluator, *scan.Pattern) {
	t.Helper()
	dev, host, lib := sweepEquivDevice(t, cfg)
	ev := NewEvaluator(host, lib, dev, 4, cfg.mode)
	rng := stats.NewRNG(17)
	seed := ev.Chains().RandomPattern(rng)
	if cfg.calibrate {
		cal := []*scan.Pattern{seed, ev.Chains().RandomPattern(rng)}
		ev.Calibrate(cal)
	}
	if cfg.drift {
		ev.SetDriftReference(ev.Chains().RandomPattern(rng))
	}
	return ev, seed
}

// sweepEquivDevice builds the device of one regime — chip, noise,
// acquisition policy and tester fault model — and returns it with the
// golden netlist and library it is certified against.
func sweepEquivDevice(t testing.TB, cfg sweepEquivConfig) (*Device, *netlist.Netlist, *power.Library) {
	t.Helper()
	inst, err := trust.Build(trust.Case{Benchmark: "s35932", Trojan: "T200"}, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	lib := power.SAED90Like()
	physical := inst.Infected
	if !cfg.infected {
		physical = inst.Host
	}
	chip := power.Manufacture(physical, lib, power.ThreeSigmaIntra(0.15), 42)
	if cfg.noiseSigma > 0 {
		chip.SetMeasurementNoise(cfg.noiseSigma)
	}
	dev := NewDevice(chip, 4, cfg.mode)
	if cfg.robust {
		dev.SetAcquisition(RobustAcquisition())
	}
	if cfg.repeats > 0 {
		dev.SetAcquisition(AcquisitionPolicy{Repeats: cfg.repeats})
	}
	if cfg.regime != "" {
		tc, err := tester.Preset(cfg.regime, 7)
		if err != nil {
			t.Fatal(err)
		}
		dev.SetFaultModel(tester.New(tc))
	}
	return dev, inst.Host, lib
}

// sweepTwinWalk walks adaptive climbs on two identically seeded stacks:
// on ev every candidate chunk is measured through the sweep session,
// rebased onto (base, base), as the 64-lane map of its candidates, on
// ref through MeasureBatch over the materialized single-flip clones.
// From each base it measures every chunk, takes the best-RPD candidate
// as Adaptive does, confirms it with Measure on both stacks and Advances
// the sweep — steps times — requiring bit-identical Readings throughout.
// The devices' AcquisitionStats and tester.Stats and a follow-up Measure
// on both stacks then show that drift tracking and the noise, fault and
// stuck-guard streams advanced identically.
func sweepTwinWalk(t *testing.T, label string, ev, ref *Evaluator, bases []*scan.Pattern, steps int) {
	t.Helper()
	sw := ev.sweep()
	cands := sw.cands
	for bi, base := range bases {
		cur := base.Clone()
		if err := sw.Rebase(cur, cur); err != nil {
			t.Fatal(err)
		}
		for step := 0; ; step++ {
			best, bestRPD := -1, 0.0
			for lo := 0; lo < len(cands); lo += 64 {
				hi := min(lo+64, len(cands))
				clones := make([]*scan.Pattern, hi-lo)
				lanes := make([]int, hi-lo)
				for i, cr := range cands[lo:hi] {
					clones[i] = cur.Clone()
					applyFlip(clones[i], cr)
					lanes[i] = lo + i
				}
				want := ref.MeasureBatch(clones)
				got := sw.MeasureLanes(nil, lanes)
				for i := range want {
					if !sameReading(got[i], want[i]) {
						t.Fatalf("%s base %d step %d chunk %d lane %d: sweep %+v, clones %+v",
							label, bi, step, lo/64, i, got[i], want[i])
					}
					if !math.IsNaN(want[i].RPD) && (best < 0 || want[i].RPD > bestRPD) {
						best, bestRPD = lo+i, want[i].RPD
					}
				}
			}
			if step == steps || best < 0 {
				break
			}
			next := cur.Clone()
			applyFlip(next, cands[best])
			if got, want := ev.Measure(next), ref.Measure(next.Clone()); !sameReading(got, want) {
				t.Fatalf("%s base %d step %d: confirmation %+v, reference %+v", label, bi, step, got, want)
			}
			if err := sw.Advance(cands[best], next, next); err != nil {
				t.Fatal(err)
			}
			cur = next
		}
	}

	assertSameStream(t, label, ev, ref, bases[len(bases)/2])
}

// assertSameStream requires two identically seeded stacks to have
// advanced their measurement streams identically: equal acquisition and
// tester-fault accounting, and a bit-identical next reading.
func assertSameStream(t *testing.T, label string, ev, ref *Evaluator, probe *scan.Pattern) {
	t.Helper()
	if got, want := ev.Device().AcquisitionStats(), ref.Device().AcquisitionStats(); got != want {
		t.Fatalf("%s: acquisition accounting deviates:\n  reference %+v\n  sweep     %+v", label, want, got)
	}
	var gotTS, wantTS tester.Stats
	if fm := ev.Device().FaultModel(); fm != nil {
		gotTS = fm.Stats()
		wantTS = ref.Device().FaultModel().Stats()
	}
	if gotTS != wantTS {
		t.Fatalf("%s: tester fault accounting deviates:\n  reference %+v\n  sweep     %+v", label, wantTS, gotTS)
	}
	if got, want := ev.Measure(probe.Clone()), ref.Measure(probe.Clone()); !sameReading(got, want) {
		t.Fatalf("%s: next reading %+v, reference %+v", label, got, want)
	}
}

// TestAdaptiveSweepMatchesLegacy is the bit-identity contract of the
// sweep engine against the clone-and-measure ("legacy") candidate loop,
// across launch modes, tester fault regimes, acquisition policies,
// drift compensation and a clean-chip control: a three-step climb from
// the regime's seed.
func TestAdaptiveSweepMatchesLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("full equivalence matrix")
	}
	for _, cfg := range sweepEquivMatrix() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			ev, seed := sweepEquivStack(t, cfg)
			ref, _ := sweepEquivStack(t, cfg)
			sweepTwinWalk(t, cfg.name, ev, ref, []*scan.Pattern{seed}, 3)
		})
	}
}

// TestAdaptiveSweepMatchesLegacyRandomized is the fuzz-style guard: tiny
// random circuits, random chain counts, modes, seeds and noise — every
// draw must keep the sweep bit-identical to the clone-and-measure loop.
func TestAdaptiveSweepMatchesLegacyRandomized(t *testing.T) {
	rng := stats.NewRNG(0xf11e5)
	for trial := 0; trial < 8; trial++ {
		params := trust.Params{
			Name:   "sweepfuzz",
			PIs:    2 + int(rng.Uint64()%5),
			POs:    3,
			FFs:    6 + int(rng.Uint64()%12),
			Comb:   40 + int(rng.Uint64()%80),
			Levels: 3 + int(rng.Uint64()%3),
			Seed:   rng.Uint64(),
		}
		n, err := trust.Generate(params)
		if err != nil {
			t.Fatal(err)
		}
		mode := scan.LOS
		if rng.Uint64()%2 == 0 {
			mode = scan.LOC
		}
		chains := 1 + int(rng.Uint64()%3)
		chipSeed := rng.Uint64()
		noise := 0.0
		if rng.Uint64()%2 == 0 {
			noise = 0.03
		}
		patSeed := rng.Uint64()

		stack := func() *Evaluator {
			lib := power.SAED90Like()
			chip := power.Manufacture(n, lib, power.ThreeSigmaIntra(0.12), chipSeed)
			if noise > 0 {
				chip.SetMeasurementNoise(noise)
			}
			dev := NewDevice(chip, chains, mode)
			if noise > 0 {
				dev.SetAcquisition(AcquisitionPolicy{Repeats: 3})
			}
			return NewEvaluator(n, lib, dev, chains, mode)
		}
		ev, ref := stack(), stack()
		seed := ev.Chains().RandomPattern(stats.NewRNG(patSeed))
		label := fmt.Sprintf("trial %d (%+v mode=%v chains=%d noise=%v)", trial, params, mode, chains, noise)
		sweepTwinWalk(t, label, ev, ref, []*scan.Pattern{seed}, 2)
	}
}

// TestTopIndicesSkipsNaN pins the screen-stage repair: residuals of
// unstabilized readings (NaN) must never be selected — previously a NaN
// was picked first and pinned, poisoning the whole screen.
func TestTopIndicesSkipsNaN(t *testing.T) {
	nan := math.NaN()
	got := topIndices([]float64{nan, 2, nan, 3, 1}, 3)
	want := []int{3, 1, 4}
	if len(got) != len(want) {
		t.Fatalf("topIndices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("topIndices = %v, want %v", got, want)
		}
	}
	if got := topIndices([]float64{nan, nan}, 2); len(got) != 0 {
		t.Errorf("all-NaN input selected %v", got)
	}
	if got := topIndices(nil, 3); len(got) != 0 {
		t.Errorf("empty input selected %v", got)
	}
	// Ties keep ascending-index order, matching the selection loop the
	// insertion sort replaced.
	got = topIndices([]float64{1, 2, 2, 2, 0}, 3)
	want = []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie order = %v, want %v", got, want)
		}
	}
}
