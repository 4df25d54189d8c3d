package core

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"

	"superpose/internal/atpg"
	"superpose/internal/parallel"
	"superpose/internal/power"
	"superpose/internal/scan"
	"superpose/internal/trust"
)

// The side-overlap suite: every reading runs its golden half alongside
// its physical half (bothSides), on a second CPU when the budget has one
// free. The schedule must never show in the output: a run with the
// golden half always on its own goroutine and a run with both halves
// inline, physical first, are bit-identical.

// overlapAlways is parallel.Both without the budget: b always runs on
// its own goroutine, joined before return, its panic re-raised.
func overlapAlways(_ bool, a, b func()) {
	var bPanic any
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { bPanic = recover() }()
		b()
	}()
	func() {
		defer func() { <-done }()
		a()
	}()
	if bPanic != nil {
		panic(bPanic)
	}
}

// inlineSides runs both halves on the caller, physical half first.
func inlineSides(_ bool, a, b func()) {
	a()
	b()
}

// withSides pins the read schedule for the rest of the test.
func withSides(t *testing.T, sides func(long bool, a, b func())) {
	t.Helper()
	prev := bothSides
	bothSides = sides
	t.Cleanup(func() { bothSides = prev })
}

// withSpareProc makes sure the budget has a CPU to lend next to one
// running certification, so parallel.Both takes its borrowed path.
func withSpareProc(t *testing.T) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// sideOverlapMatrix is the sweep equivalence matrix plus the combined
// and stuck-latch tester regimes under both launch modes.
func sideOverlapMatrix() []sweepEquivConfig {
	m := sweepEquivMatrix()
	for _, mode := range []scan.Mode{scan.LOS, scan.LOC} {
		for _, regime := range []string{"combined", "stuck"} {
			m = append(m, sweepEquivConfig{
				name: mode.String() + "-" + regime + "-detect", mode: mode, infected: true,
				noiseSigma: 0.01, regime: regime, robust: true,
			})
		}
	}
	return m
}

// sideOverlapDetect runs the full pipeline on a fresh device of one
// regime under the given read schedule and returns the Report's JSON
// and the device, whose streams the caller compares.
func sideOverlapDetect(t *testing.T, cfg sweepEquivConfig, seeds []*scan.Pattern, sides func(long bool, a, b func())) ([]byte, *Device) {
	t.Helper()
	withSides(t, sides)
	dev, host, lib := sweepEquivDevice(t, cfg)
	rep, err := Detect(host, lib, dev, Config{
		NumChains: 4, Mode: cfg.mode, Varsigma: 0.10, SeedPatterns: seeds, MaxSeeds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b, dev
}

// TestSideOverlapMatchesInline is the bit-identity contract of the read
// overlap: Detect with every golden half on a helper goroutine and
// Detect with every read inline deliver byte-identical Report JSON, and
// leave the devices' acquisition and tester-fault accounting and their
// next reading identical.
func TestSideOverlapMatchesInline(t *testing.T) {
	if testing.Short() {
		t.Skip("full equivalence matrix")
	}
	inst, err := trust.Build(trust.Case{Benchmark: "s35932", Trojan: "T200"}, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	seedCfg, err := WithSharedSeeds(inst.Host, Config{
		NumChains: 4, ATPG: atpg.Options{Seed: 7, RandomPatterns: 32, MaxFaults: 40, FaultSample: 120},
	})
	if err != nil {
		t.Fatal(err)
	}
	probe := seedCfg.SeedPatterns[0]
	for _, cfg := range sideOverlapMatrix() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			got, dev := sideOverlapDetect(t, cfg, seedCfg.SeedPatterns, overlapAlways)
			want, ref := sideOverlapDetect(t, cfg, seedCfg.SeedPatterns, inlineSides)
			if string(got) != string(want) {
				t.Fatalf("overlapped report deviates from inline:\n  inline     %s\n  overlapped %s", want, got)
			}
			if g, w := dev.AcquisitionStats(), ref.AcquisitionStats(); g != w {
				t.Fatalf("acquisition accounting deviates:\n  inline     %+v\n  overlapped %+v", w, g)
			}
			if fm := dev.FaultModel(); fm != nil {
				if g, w := fm.Stats(), ref.FaultModel().Stats(); g != w {
					t.Fatalf("tester fault accounting deviates:\n  inline     %+v\n  overlapped %+v", w, g)
				}
			}
			if g, w := dev.Measure(probe), ref.Measure(probe); !sameFloat(g, w) {
				t.Fatalf("next reading %v, inline %v", g, w)
			}
		})
	}
}

// TestSideOverlapGoldenPanicContained injects a panic into the golden
// half of a read, which parallel.Both runs on a borrowed CPU: CertifyLot
// must return it as a *parallel.PanicError, not crash the process, and
// leave no helper goroutine behind.
func TestSideOverlapGoldenPanicContained(t *testing.T) {
	withSpareProc(t)
	withSides(t, func(_ bool, a, b func()) {
		parallel.Both(a, func() { panic("injected golden-half fault") })
	})
	n, err := trust.Generate(trust.Params{Name: "sidepanic", PIs: 4, POs: 4, FFs: 12, Comb: 90, Levels: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	lr, err := CertifyLot(n, power.SAED90Like(), n, Config{NumChains: 2, Varsigma: 0.1},
		LotOptions{Dies: 2, Variation: power.ThreeSigmaIntra(0.1), Seed: 3, Workers: 1})
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *parallel.PanicError", err)
	}
	if pe.Value != "injected golden-half fault" {
		t.Errorf("panic value %v, want the injected fault", pe.Value)
	}
	if lr != nil {
		t.Error("a panicked lot must not deliver a report")
	}
	settleGoroutines(t, base)
}

// TestSideOverlapCancelMidClimb cancels a DetectContext from the first
// accepted climb step's progress event: the run returns the
// cancellation with no helper goroutine still running.
func TestSideOverlapCancelMidClimb(t *testing.T) {
	withSpareProc(t)
	n, err := trust.Generate(trust.Params{Name: "sidecancel", PIs: 4, POs: 4, FFs: 12, Comb: 90, Levels: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lib := power.SAED90Like()
	dev := NewDevice(power.Manufacture(n, lib, power.ThreeSigmaIntra(0.1), 1), 2, scan.LOS)
	defer dev.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reads int
	withSides(t, func(_ bool, a, b func()) {
		reads++
		parallel.Both(a, b)
	})
	cfg := Config{NumChains: 2, Varsigma: 0.1, Progress: func(p Progress) {
		if p.Stage == StageAdaptive && p.Step > 0 {
			cancel()
		}
	}}
	base := runtime.NumGoroutine()
	rep, err := DetectContext(ctx, n, lib, dev, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Error("cancelled detect must not deliver a report")
	}
	if reads == 0 {
		t.Fatal("no read went through the side overlap before the cancel")
	}
	settleGoroutines(t, base)
}

// settleGoroutines waits for the goroutine count to return to base; a
// helper still running past its read would hold it above.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, baseline %d: a helper outlived its read", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// sameFloat compares two readings by their IEEE-754 bits (NaN equals
// NaN).
func sameFloat(a, b float64) bool {
	return parallel.Diff(a, b) == ""
}
