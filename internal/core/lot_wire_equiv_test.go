package core_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
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
// (netio.EncodeLotReport) to the same bytes at every worker count. On
// amd64 each regime's encoding is also pinned to a golden sha256, so a
// change to the power path's bytes fails here rather than slipping
// through; other architectures may round float arithmetic differently
// (fused multiply-add), so there the digest is only logged.
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
		name   string
		lot    core.LotOptions
		sha256 string
	}{
		{"ideal", core.LotOptions{
			Dies: 3, Variation: power.ThreeSigmaIntra(0.10), Seed: 5,
		}, "fa222813fa87f163ea9754be51de655f7686b77e305ff09c83c5f3079c41fb1b"},
		{"combined-tester", core.LotOptions{
			Dies: 3, Variation: power.ThreeSigmaIntra(0.10), Seed: 5,
			Tester: combined, Acquisition: core.RobustAcquisition(),
		}, "58cd2b5aff3a95ab246df24a8d5c5f44ab21fad55fadeb300f2fe7869367c512"},
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
					sum := fmt.Sprintf("%x", sha256.Sum256(ref))
					t.Logf("%s LotReport sha256 %s (%d bytes)", rg.name, sum, len(ref))
					if runtime.GOARCH == "amd64" && sum != rg.sha256 {
						t.Errorf("LotReport sha256 %s, want %s: the power path's bytes changed", sum, rg.sha256)
					}
					continue
				}
				if !bytes.Equal(buf.Bytes(), ref) {
					t.Errorf("workers %d: encoded LotReport differs from the serial run", w)
				}
			}
		})
	}
}
