package core

import (
	"sync"
	"testing"

	"superpose/internal/atpg"
	"superpose/internal/parallel"
	"superpose/internal/power"
	"superpose/internal/tester"
	"superpose/internal/trojan"
	"superpose/internal/trust"
)

// The equivalence suite: the headline guarantee of the parallel engine is
// that Workers=N output is byte-for-byte equal to Workers=1 for every
// report, row and S-RPD value. Comparisons go through parallel.Diff,
// which compares floats by bit pattern (NaN-stable) and follows every
// pointer in the report structs, so nothing — Confirmed verdicts,
// UnstableSeeds/UnstablePairs annotations, acquisition counters, the
// patterns themselves — escapes the check.

var equivWorkers = []int{1, 2, 8}

func equivInstance(t testing.TB) *trojan.Instance {
	t.Helper()
	inst, err := trust.Build(trust.Case{Benchmark: "s35932", Trojan: "T200"}, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func equivLotConfig(t testing.TB, inst *trojan.Instance) Config {
	t.Helper()
	cfg := Config{
		NumChains: 4, Varsigma: 0.10,
		ATPG: atpg.Options{Seed: 7, RandomPatterns: 32, MaxFaults: 40, FaultSample: 120},
	}
	cfg, err := WithSharedSeeds(inst.Host, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestCertifyLotWorkerEquivalence runs the same lot at every worker
// count, on an ideal tester and under the combined fault preset (the
// hostile regime where NaN annotations and acquisition retries appear),
// and requires bit-identical LotReports throughout.
func TestCertifyLotWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-die pipeline runs")
	}
	inst := equivInstance(t)
	lib := power.SAED90Like()
	cfg := equivLotConfig(t, inst)

	regimes := []struct {
		name string
		lot  LotOptions
	}{
		{"ideal", LotOptions{
			Dies: 4, Variation: power.ThreeSigmaIntra(0.10), Seed: 5,
		}},
		{"combined-tester", func() LotOptions {
			tc, err := tester.Preset("combined", 17)
			if err != nil {
				t.Fatal(err)
			}
			return LotOptions{
				Dies: 4, Variation: power.ThreeSigmaIntra(0.10), Seed: 5,
				Tester: tc, Acquisition: RobustAcquisition(),
			}
		}()},
	}
	for _, rg := range regimes {
		rg := rg
		t.Run(rg.name, func(t *testing.T) {
			var ref *LotReport
			for _, w := range equivWorkers {
				lot := rg.lot
				lot.Workers = w
				lr, err := CertifyLot(inst.Host, lib, inst.Infected, cfg, lot)
				if err != nil {
					t.Fatalf("workers %d: %v", w, err)
				}
				if w == 1 {
					ref = lr
					continue
				}
				if d := parallel.Diff(ref, lr); d != "" {
					t.Errorf("workers %d not bit-identical to serial: %s", w, d)
				}
			}
		})
	}
}

// TestTableIWorkerEquivalence requires identical Table I rows — every
// RPD, S-RPD and TCA cell — at every worker count, with the ATPG fault
// simulation parallelized along (Workers propagates into ATPG.Workers).
func TestTableIWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-case pipeline runs")
	}
	var ref []TableIRow
	for _, w := range equivWorkers {
		cfg := ExperimentConfig{Scale: 0.04, Varsigma: 0.08, ChipSeed: 99, Workers: w}
		rows, err := RunTableI(cfg)
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		if len(rows) != len(trust.Cases()) {
			t.Fatalf("workers %d: %d rows", w, len(rows))
		}
		if ref == nil {
			ref = rows
			continue
		}
		if d := parallel.Diff(ref, rows); d != "" {
			t.Errorf("workers %d not bit-identical to serial: %s", w, d)
		}
	}
}

// TestCleanControlsWorkerEquivalence covers the false-positive side of
// the harness: identical control rows at every worker count.
func TestCleanControlsWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-case pipeline runs")
	}
	var ref []ControlRow
	for _, w := range equivWorkers {
		cfg := ExperimentConfig{Scale: 0.04, Varsigma: 0.08, ChipSeed: 99, Workers: w}
		rows, err := RunCleanControls(cfg)
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		if ref == nil {
			ref = rows
			continue
		}
		if d := parallel.Diff(ref, rows); d != "" {
			t.Errorf("workers %d not bit-identical to serial: %s", w, d)
		}
	}
}

// TestSigmaSweepWorkerEquivalence pins the σ-sweep: per-die seeds derive
// from the grid index via parallel.Mix, so rows must be bit-identical at
// every worker count.
func TestSigmaSweepWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-die pipeline runs")
	}
	var ref []SigmaSweepRow
	for _, w := range equivWorkers {
		cfg := ExperimentConfig{Scale: 0.04, Varsigma: 0.08, ChipSeed: 99, Workers: w}
		rows, err := RunSigmaSweep(trust.Cases()[0], cfg, []float64{0.08, 0.15}, 2)
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		if ref == nil {
			ref = rows
			continue
		}
		if d := parallel.Diff(ref, rows); d != "" {
			t.Errorf("workers %d not bit-identical to serial: %s", w, d)
		}
	}
}

// TestConcurrentLotsNoCrossContamination is the shared-state regression
// test: two certifications with different lot seeds and different
// physical netlists (one infected, one clean) run concurrently, each
// itself fanned out, and must reproduce their isolated serial results
// exactly. Any hidden shared mutable state — a package-level RNG, a
// shared device buffer, config mutation during the fan-out — shows up
// here as a diff or as a race-detector report.
func TestConcurrentLotsNoCrossContamination(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-die pipeline runs")
	}
	inst := equivInstance(t)
	lib := power.SAED90Like()
	cfg := equivLotConfig(t, inst)

	lotA := LotOptions{Dies: 3, Variation: power.ThreeSigmaIntra(0.10), Seed: 5, Workers: 1}
	lotB := LotOptions{Dies: 3, Variation: power.ThreeSigmaIntra(0.10), Seed: 1234, Workers: 1}

	// Isolated serial references.
	refA, err := CertifyLot(inst.Host, lib, inst.Infected, cfg, lotA)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := CertifyLot(inst.Host, lib, inst.Host, cfg, lotB)
	if err != nil {
		t.Fatal(err)
	}

	// The same two lots, concurrently, each with its own internal fan-out.
	lotA.Workers, lotB.Workers = 2, 2
	var gotA, gotB *LotReport
	var errA, errB error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		gotA, errA = CertifyLot(inst.Host, lib, inst.Infected, cfg, lotA)
	}()
	go func() {
		defer wg.Done()
		gotB, errB = CertifyLot(inst.Host, lib, inst.Host, cfg, lotB)
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if d := parallel.Diff(refA, gotA); d != "" {
		t.Errorf("infected lot contaminated by concurrent clean lot: %s", d)
	}
	if d := parallel.Diff(refB, gotB); d != "" {
		t.Errorf("clean lot contaminated by concurrent infected lot: %s", d)
	}
}
