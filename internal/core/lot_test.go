package core

import (
	"strings"
	"testing"

	"superpose/internal/atpg"
	"superpose/internal/power"
	"superpose/internal/trust"
)

func TestCertifyLot(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-die pipeline run")
	}
	inst, err := trust.Build(trust.Case{Benchmark: "s35932", Trojan: "T200"}, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	lib := power.SAED90Like()
	cfg := Config{
		NumChains: 4, Varsigma: 0.10,
		ATPG: atpg.Options{Seed: 7, RandomPatterns: 32, MaxFaults: 40, FaultSample: 120},
	}
	cfg, err = WithSharedSeeds(inst.Host, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.SeedPatterns) == 0 {
		t.Fatal("shared seeds missing")
	}
	// Idempotent.
	cfg2, err := WithSharedSeeds(inst.Host, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg2.SeedPatterns) != len(cfg.SeedPatterns) {
		t.Fatal("WithSharedSeeds must be idempotent")
	}

	lot := LotOptions{Dies: 3, Variation: power.ThreeSigmaIntra(0.10), Seed: 5}

	bad, err := CertifyLot(inst.Host, lib, inst.Infected, cfg, lot)
	if err != nil {
		t.Fatal(err)
	}
	good, err := CertifyLot(inst.Host, lib, inst.Host, cfg, lot)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("infected lot: %s", bad)
	t.Logf("clean lot:    %s", good)

	if bad.DetectionRate() < 1.0 {
		t.Errorf("infected lot detection rate %.2f, want 1.0", bad.DetectionRate())
	}
	if good.DetectionRate() > 0 {
		t.Errorf("clean lot false positive rate %.2f", good.DetectionRate())
	}
	if bad.SRPD.Mean <= good.SRPD.Mean {
		t.Error("infected lot signal must exceed clean lot signal")
	}
	if !strings.Contains(bad.String(), "dies flagged") {
		t.Error("lot summary formatting")
	}
	if len(bad.Dies) != 3 || bad.Dies[1].Die != 1 {
		t.Error("die bookkeeping")
	}
}

func TestCertifyLotWithMeasurementNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-die pipeline run")
	}
	inst, err := trust.Build(trust.Case{Benchmark: "s35932", Trojan: "T200"}, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	lib := power.SAED90Like()
	cfg, err := WithSharedSeeds(inst.Host, Config{
		NumChains: 4, Varsigma: 0.10,
		ATPG: atpg.Options{Seed: 7, RandomPatterns: 32, MaxFaults: 40, FaultSample: 120},
	})
	if err != nil {
		t.Fatal(err)
	}
	lot := LotOptions{Dies: 2, Variation: power.ThreeSigmaIntra(0.10), Seed: 5, MeasurementNoise: 0.002}
	rep, err := CertifyLot(inst.Host, lib, inst.Infected, cfg, lot)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("noisy lot: %s", rep)
	if rep.DetectionRate() < 0.5 {
		t.Errorf("mild tester noise collapsed detection: %s", rep)
	}
}

func TestLotEmpty(t *testing.T) {
	lr := &LotReport{}
	if lr.DetectionRate() != 0 {
		t.Error("empty lot rate")
	}
}

func TestCleanLotUnderTesterNoiseNeedsAveraging(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-die pipeline run")
	}
	// Tester noise inflates mined residuals on clean dies; averaging 32
	// readings per pattern restores the false-positive margin.
	inst, err := trust.Build(trust.Case{Benchmark: "s35932", Trojan: "T200"}, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	lib := power.SAED90Like()
	cfg, err := WithSharedSeeds(inst.Host, Config{
		NumChains: 4, Varsigma: 0.10,
		ATPG: atpg.Options{Seed: 7, RandomPatterns: 32, MaxFaults: 40, FaultSample: 120},
	})
	if err != nil {
		t.Fatal(err)
	}
	lot := LotOptions{
		Dies: 2, Variation: power.ThreeSigmaIntra(0.10), Seed: 5,
		MeasurementNoise: 0.002, Acquisition: AcquisitionPolicy{Repeats: 32},
	}
	clean, err := CertifyLot(inst.Host, lib, inst.Host, cfg, lot)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("clean lot with averaged noisy tester: %s", clean)
	if acq := clean.Acquisition; acq.Readings == 0 || acq.Raw != 32*acq.Readings {
		t.Errorf("acquisition took %d raw samples for %d readings, want 32 per reading", acq.Raw, acq.Readings)
	}
	if clean.DetectionRate() > 0 {
		t.Errorf("averaged tester noise still produced false positives: %s", clean)
	}
}
