package core_test

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"testing"

	"superpose/internal/atpg"
	"superpose/internal/core"
	"superpose/internal/netio"
	"superpose/internal/power"
	"superpose/internal/tester"
	"superpose/internal/trust"
)

// TestCertifyLotEngineWorkerEquivalence is the lot-level statement of
// the PPSFP engine's determinism contract at the wire: the same lot, on
// an ideal tester and under the combined fault preset, must encode
// (netio.EncodeLotReport) to the same bytes at every worker count. The
// sha256 of each regime's encoding is logged, so the bytes can be
// compared across commits with -v.
func TestCertifyLotEngineWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-die pipeline runs")
	}
	inst, err := trust.Build(trust.Case{Benchmark: "s35932", Trojan: "T200"}, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	lib := power.SAED90Like()
	cfg, err := core.WithSharedSeeds(inst.Host, core.Config{
		NumChains: 4, Varsigma: 0.10,
		ATPG: atpg.Options{Seed: 7, RandomPatterns: 32, MaxFaults: 40, FaultSample: 120},
	})
	if err != nil {
		t.Fatal(err)
	}
	combined, err := tester.Preset("combined", 17)
	if err != nil {
		t.Fatal(err)
	}
	regimes := []struct {
		name string
		lot  core.LotOptions
	}{
		{"ideal", core.LotOptions{
			Dies: 3, Variation: power.ThreeSigmaIntra(0.10), Seed: 5,
		}},
		{"combined-tester", core.LotOptions{
			Dies: 3, Variation: power.ThreeSigmaIntra(0.10), Seed: 5,
			Tester: combined, Acquisition: core.RobustAcquisition(),
		}},
	}
	for _, rg := range regimes {
		rg := rg
		t.Run(rg.name, func(t *testing.T) {
			var ref []byte
			for _, w := range []int{1, 4, runtime.NumCPU()} {
				lot := rg.lot
				lot.Workers = w
				lr, err := core.CertifyLot(inst.Host, lib, inst.Infected, cfg, lot)
				if err != nil {
					t.Fatalf("workers %d: %v", w, err)
				}
				var buf bytes.Buffer
				if err := netio.EncodeLotReport(&buf, lr); err != nil {
					t.Fatalf("workers %d: encode: %v", w, err)
				}
				if ref == nil {
					ref = buf.Bytes()
					t.Logf("%s LotReport sha256 %x (%d bytes)", rg.name, sha256.Sum256(ref), len(ref))
					continue
				}
				if !bytes.Equal(buf.Bytes(), ref) {
					t.Errorf("workers %d: encoded LotReport differs from the serial run", w)
				}
			}
		})
	}
}
