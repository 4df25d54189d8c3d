package core

import (
	"math"
	"testing"

	"superpose/internal/netlist"
	"superpose/internal/power"
	"superpose/internal/scan"
	"superpose/internal/stats"
	"superpose/internal/tester"
)

// buildAcqBench builds a small scan circuit (per-FF observer gates so
// every launch toggles combinational logic), manufactures a noiseless
// chip, and returns a device plus a batch of random patterns.
func buildAcqBench(t testing.TB, nFF, nPats int) (*Device, []*scan.Pattern) {
	t.Helper()
	b := netlist.NewBuilder("acqbench")
	if _, err := b.AddInput("pi"); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < nFF; k++ {
		ff := "ff" + string(rune('a'+k))
		if _, err := b.AddDFF(ff, "d"+string(rune('a'+k))); err != nil {
			t.Fatal(err)
		}
		if _, err := b.AddGate("obs"+string(rune('a'+k)), netlist.Buf, ff); err != nil {
			t.Fatal(err)
		}
		if _, err := b.AddGate("d"+string(rune('a'+k)), netlist.Xor, "obs"+string(rune('a'+k)), "pi"); err != nil {
			t.Fatal(err)
		}
		b.MarkOutput("obs" + string(rune('a'+k)))
	}
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	chip := power.Manufacture(nl, power.SAED90Like(), power.ThreeSigmaIntra(0.15), 7)
	dev := NewDevice(chip, 2, scan.LOS)
	ch := scan.Configure(nl, 2)
	rng := stats.NewRNG(11)
	pats := make([]*scan.Pattern, nPats)
	for i := range pats {
		pats[i] = ch.RandomPattern(rng)
	}
	return dev, pats
}

// TestFastPathSkipsRepeats pins the noiseless fast path: with no
// measurement noise and no fault model, every repeat returns the
// identical value, so one sweep must serve regardless of the configured
// repeat count — visible as exactly one pass per batch in the
// acquisition counters.
func TestFastPathSkipsRepeats(t *testing.T) {
	dev, pats := buildAcqBench(t, 8, 6)
	ref := dev.MeasureBatch(pats)

	dev.SetAcquisition(AcquisitionPolicy{Repeats: 10})
	before := dev.AcquisitionStats()
	got := dev.MeasureBatch(pats)
	d := dev.AcquisitionStats().Sub(before)

	if d.Passes != 1 {
		t.Errorf("fast path took %d passes for one batch, want 1", d.Passes)
	}
	if d.Raw != uint64(len(pats)) || d.Readings != uint64(len(pats)) {
		t.Errorf("fast path counters raw %d readings %d, want %d each", d.Raw, d.Readings, len(pats))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Errorf("reading %d: repeats changed a noiseless value: %v vs %v", i, got[i], ref[i])
		}
	}
}

// TestAcquisitionRepeatsClamp pins withDefaults' Repeats < 1 → 1
// clamp where it shows: on a noisy chip (no fast path) every repeat is
// one pass over the batch, so a policy with Repeats 0 or −3 must take
// exactly one pass, and Repeats 4 four.
func TestAcquisitionRepeatsClamp(t *testing.T) {
	dev, pats := buildAcqBench(t, 4, 3)
	dev.chip.SetMeasurementNoise(0.01)
	for _, c := range []struct{ repeats, passes int }{{0, 1}, {-3, 1}, {4, 4}} {
		dev.SetAcquisition(AcquisitionPolicy{Repeats: c.repeats})
		before := dev.AcquisitionStats()
		dev.MeasureBatch(pats)
		d := dev.AcquisitionStats().Sub(before)
		if d.Passes != uint64(c.passes) || d.Raw != uint64(c.passes*len(pats)) {
			t.Errorf("Repeats %d: %d passes, %d raw samples; want %d passes of %d",
				c.repeats, d.Passes, d.Raw, c.passes, len(pats))
		}
	}
}

// TestRobustAcquisitionRecoversSpikes: on a noiseless chip the clean
// samples of a reading are bit-identical, so median aggregation with MAD
// rejection must deliver the exact clean value as long as spikes stay a
// per-reading minority — and the spread gate retries the readings where
// they do not.
func TestRobustAcquisitionRecoversSpikes(t *testing.T) {
	dev, pats := buildAcqBench(t, 8, 10)
	ref := dev.MeasureBatch(pats)

	dev.SetAcquisition(RobustAcquisition())
	dev.SetFaultModel(tester.New(tester.Config{Seed: 3, SpikeRate: 0.1, SpikeMag: 10}))
	got := dev.MeasureBatch(pats)
	st := dev.AcquisitionStats()

	for i := range got {
		if math.IsNaN(got[i]) {
			continue // counted below
		}
		if got[i] != ref[i] {
			t.Errorf("reading %d: %v, want exact clean value %v", i, got[i], ref[i])
		}
	}
	if st.Rejected == 0 {
		t.Error("no samples rejected despite 10% spike contamination")
	}
	if st.Unstable > 1 {
		t.Errorf("%d unstable readings, want at most 1", st.Unstable)
	}
}

// TestRobustAcquisitionDrops: dropped (NaN) raw samples are discarded
// and the surviving identical samples still deliver the exact value.
func TestRobustAcquisitionDrops(t *testing.T) {
	dev, pats := buildAcqBench(t, 8, 10)
	ref := dev.MeasureBatch(pats)

	dev.SetAcquisition(RobustAcquisition())
	dev.SetFaultModel(tester.New(tester.Config{Seed: 5, DropRate: 0.2}))
	got := dev.MeasureBatch(pats)
	st := dev.AcquisitionStats()

	if st.Dropped == 0 {
		t.Fatal("fault model dropped nothing at 20% drop rate")
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Errorf("reading %d: %v, want exact clean value %v", i, got[i], ref[i])
		}
	}
}

// TestStuckGuard: a latched ADC repeats a stale value bit-for-bit — a
// zero-dispersion majority that median, MAD and spread gate all trust.
// The stuck guard discards exact cross-pattern duplicates, so delivered
// readings remain exactly clean and the Latched counter records the
// discards.
func TestStuckGuard(t *testing.T) {
	dev, pats := buildAcqBench(t, 8, 10)
	ref := dev.MeasureBatch(pats)

	dev.SetAcquisition(RobustAcquisition())
	dev.SetFaultModel(tester.New(tester.Config{Seed: 9, StuckRate: 0.05, StuckLen: 8}))
	var got []float64
	for sweep := 0; sweep < 5; sweep++ { // enough stream for several latches
		got = dev.MeasureBatch(pats)
	}
	st := dev.AcquisitionStats()

	if st.Latched == 0 {
		t.Fatal("stuck guard discarded nothing at 5% latch rate")
	}
	for i := range got {
		if math.IsNaN(got[i]) {
			continue
		}
		if got[i] != ref[i] {
			t.Errorf("reading %d: %v, want exact clean value %v (stale latch leaked through)", i, got[i], ref[i])
		}
	}
}

// TestNaiveAcquisitionCorrupted is the contrast case: the naive
// single-shot policy passes spike contamination straight through.
func TestNaiveAcquisitionCorrupted(t *testing.T) {
	dev, pats := buildAcqBench(t, 8, 10)
	ref := dev.MeasureBatch(pats)

	dev.SetFaultModel(tester.New(tester.Config{Seed: 3, SpikeRate: 0.3, SpikeMag: 10}))
	got := dev.MeasureBatch(pats)

	corrupted := 0
	for i := range got {
		if got[i] != ref[i] {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Error("naive acquisition delivered clean values under 30% spike contamination")
	}
}
