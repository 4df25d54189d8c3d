package netio

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"

	"superpose/internal/atpg"
	"superpose/internal/core"
	"superpose/internal/power"
	"superpose/internal/tester"
	"superpose/internal/trust"
)

// FuzzReportWire decodes arbitrary bytes as a Report and as a LotReport.
// Whatever decodes must reach a byte-identical fixed point after one
// encode→decode→encode round, NaN verdict fields included: the service
// journals, replicates and serves these encodings, so a second pass
// through the wire may never change them.
func FuzzReportWire(f *testing.F) {
	for _, seed := range wireSeeds(f) {
		f.Add(seed)
	}
	// Small hand-written seeds the mutator explores quickly.
	f.Add([]byte(`{"final_srpd":null,"final_z":"+Inf","seed_reading":{"rpd":"NaN"}}`))
	f.Add([]byte(`{"dies":[{"die":1,"final_mag":"-Inf","report":{"final_srpd":null}}],"srpd":{"n":1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		wireFixedPoint(t, "Report", data, DecodeReport, EncodeReport)
		wireFixedPoint(t, "LotReport", data, DecodeLotReport, EncodeLotReport)
	})
}

// wireFixedPoint checks that a value decoded from data re-encodes to
// bytes that decode and re-encode to themselves.
func wireFixedPoint[T any](t *testing.T, kind string, data []byte,
	decode func(io.Reader) (*T, error), encode func(io.Writer, *T) error) {
	v, err := decode(bytes.NewReader(data))
	if err != nil {
		return
	}
	var first bytes.Buffer
	if err := encode(&first, v); err != nil {
		t.Fatalf("%s: decoded value does not encode: %v", kind, err)
	}
	back, err := decode(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("%s: own encoding does not decode: %v\n%s", kind, err, first.Bytes())
	}
	var second bytes.Buffer
	if err := encode(&second, back); err != nil {
		t.Fatalf("%s: re-decoded value does not encode: %v", kind, err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("%s: no fixed point:\nfirst:  %s\nsecond: %s", kind, first.Bytes(), second.Bytes())
	}
}

// wireSeeds encodes real reports: a small clean-tester lot and the same
// lot under the combined fault preset, each lot's first die report, and
// the clean lot with its first die degraded to NaN (an unstable die).
func wireSeeds(f *testing.F) [][]byte {
	inst, err := trust.Build(trust.Case{Benchmark: "s35932", Trojan: "T200"}, 0.01)
	if err != nil {
		f.Fatal(err)
	}
	lib := power.SAED90Like()
	cfg, err := core.WithSharedSeeds(inst.Host, core.Config{
		NumChains: 4, Varsigma: 0.10, MaxSeeds: 1, MaxPairs: 1,
		Adaptive: core.AdaptiveOptions{MaxSteps: 1},
		ATPG:     atpg.Options{Seed: 7, RandomPatterns: 8, MaxPatterns: 8, MaxFaults: 8, FaultSample: 16},
	})
	if err != nil {
		f.Fatal(err)
	}
	combined, err := tester.Preset("combined", 17)
	if err != nil {
		f.Fatal(err)
	}
	lot := core.LotOptions{Dies: 1, Variation: power.ThreeSigmaIntra(0.10), Seed: 5, Workers: 1}
	faulty := lot
	faulty.Tester, faulty.Acquisition = combined, core.RobustAcquisition()

	// Compacted, so the fuzzer's mutation and minimization stay fast.
	var seeds [][]byte
	encode := func(enc func(*bytes.Buffer) error) {
		var buf, compact bytes.Buffer
		if err := enc(&buf); err != nil {
			f.Fatal(err)
		}
		if err := json.Compact(&compact, buf.Bytes()); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, compact.Bytes())
	}
	for _, lo := range []core.LotOptions{lot, faulty} {
		lr, err := core.CertifyLot(inst.Host, lib, inst.Infected, cfg, lo)
		if err != nil {
			f.Fatal(err)
		}
		encode(func(b *bytes.Buffer) error { return EncodeLotReport(b, lr) })
		encode(func(b *bytes.Buffer) error { return EncodeReport(b, lr.Dies[0].Report) })
		if lo.Tester.Enabled() {
			continue
		}
		lr.Dies[0].FinalMag = math.NaN()
		lr.Dies[0].Report.FinalSRPD = math.NaN()
		lr.Dies[0].Report.FinalZ = math.NaN()
		encode(func(b *bytes.Buffer) error { return EncodeLotReport(b, lr) })
	}
	return seeds
}
