package netio

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"superpose/internal/core"
	"superpose/internal/scan"
	"superpose/internal/stats"
)

func samplePattern() *scan.Pattern {
	return &scan.Pattern{
		Scan: [][]bool{{true, false, true}, {false, false, true}},
		PI:   []bool{true, false},
	}
}

func sampleReport(unstable bool) *core.Report {
	p := samplePattern()
	q := p.Clone()
	q.Scan[0][1] = true
	rep := &core.Report{
		ATPGSummary: "atpg: 12 patterns",
		SeedReading: core.Reading{Observed: 104.25, Nominal: 100, RPD: 0.0425},
		SeedPattern: p,
		Adaptive: &core.AdaptiveResult{
			Steps: []core.AdaptiveStep{
				{Pattern: p, Reading: core.Reading{Observed: 104.25, Nominal: 100, RPD: 0.0425},
					Flipped: core.CellRef{Chain: -1, Index: -1}, Transitions: 3},
				{Pattern: q, Reading: core.Reading{Observed: 106.5, Nominal: 101, RPD: 0.0545},
					Flipped: core.CellRef{Chain: 0, Index: 1}, Transitions: 4},
			},
			Best: 1,
			Pairs: []core.PairCandidate{{
				A: p, B: q, Critical: core.CellRef{Chain: 0, Index: 1},
				SRPD: 0.31, Significance: 2.4,
			}},
		},
		AdaptiveReading: core.Reading{Observed: 106.5, Nominal: 101, RPD: 0.0545},
		HasPair:         true,
		Superposition: core.PairAnalysis{
			A: p, B: q,
			ObservedA: 104.25, ObservedB: 106.5,
			NominalA: 100, NominalB: 101,
			CommonCount: 17, AUniqueCount: 3, BUniqueCount: 2,
			NominalAUnique: 4.5, NominalBUnique: 3.25,
			UniqueEnergySq: 11.0625, SRPD: 0.31,
		},
		Strategic: core.StrategicResult{
			Initial: core.PairAnalysis{SRPD: 0.31, UniqueEnergySq: 11.0625},
			Final:   core.PairAnalysis{SRPD: 0.42, UniqueEnergySq: 6.5},
			Applied: []core.AppliedMod{{
				Cell: core.CellRef{Chain: 1, Index: 2}, Kind: core.EliminateTwo,
				SRPDBefore: 0.31, SRPDAfter: 0.42,
			}},
		},
		Confirmed: core.PairAnalysis{SRPD: 0.41, UniqueEnergySq: 6.5},
		Acquisition: core.AcquisitionStats{
			Readings: 640, Passes: 41, Raw: 1920, Dropped: 12,
			Rejected: 7, Latched: 2, Retries: 3, Unstable: 1,
		},
		UnstableSeeds: 1,
		UnstablePairs: 0,
		FinalSRPD:     0.41,
		FinalZ:        4.9,
		Varsigma:      0.25,
		Detected:      true,
	}
	if unstable {
		// The graceful-degradation outcome: every flagged pair unstable.
		rep.FinalSRPD = math.NaN()
		rep.FinalZ = math.NaN()
		rep.Confirmed.ObservedA = math.NaN()
		rep.Confirmed.ObservedB = math.NaN()
		rep.Confirmed.SRPD = math.NaN()
		rep.SeedReading = core.Reading{
			Observed: math.NaN(), Nominal: math.NaN(), RPD: math.NaN(),
		}
		rep.Detected = false
	}
	return rep
}

// encodeDecodeEncode round-trips a value and returns both encodings; the
// caller asserts byte equality, which (unlike reflect.DeepEqual) treats
// the NaN verdict fields as equal to themselves.
func TestReportRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name     string
		unstable bool
	}{{"finite", false}, {"unstable_nan", true}} {
		t.Run(tc.name, func(t *testing.T) {
			rep := sampleReport(tc.unstable)
			var first bytes.Buffer
			if err := EncodeReport(&first, rep); err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := DecodeReport(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			var second bytes.Buffer
			if err := EncodeReport(&second, got); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Errorf("report round-trip not bit-identical:\nfirst:\n%s\nsecond:\n%s",
					first.String(), second.String())
			}
			// Spot-check structure beyond byte equality.
			if got.HasPair != rep.HasPair || got.Detected != rep.Detected {
				t.Errorf("verdict fields changed: got HasPair=%v Detected=%v", got.HasPair, got.Detected)
			}
			if !got.SeedPattern.Equal(rep.SeedPattern) {
				t.Errorf("seed pattern changed across round trip")
			}
			if tc.unstable {
				if !math.IsNaN(got.FinalSRPD) || !math.IsNaN(got.FinalZ) {
					t.Errorf("NaN verdict not preserved: srpd=%v z=%v", got.FinalSRPD, got.FinalZ)
				}
			} else if got.FinalSRPD != rep.FinalSRPD {
				t.Errorf("FinalSRPD = %v, want %v", got.FinalSRPD, rep.FinalSRPD)
			}
			if !reflect.DeepEqual(got.Acquisition, rep.Acquisition) {
				t.Errorf("acquisition counters changed: %+v vs %+v", got.Acquisition, rep.Acquisition)
			}
		})
	}
}

func TestLotReportRoundTrip(t *testing.T) {
	stable := sampleReport(false)
	unstable := sampleReport(true)
	lr := &core.LotReport{
		Dies: []core.DieResult{
			{Die: 0, Seed: 7, Report: stable, FinalMag: math.Abs(stable.FinalSRPD)},
			{Die: 1, Seed: 7 + 0x9E37, Report: unstable, FinalMag: math.NaN()},
		},
		Detected:    1,
		SRPD:        stats.Summary{N: 1, Mean: 0.41, Std: 0, Min: 0.41, Max: 0.41},
		Unstable:    1,
		Acquisition: core.AcquisitionStats{Readings: 1280, Passes: 82, Raw: 3840},
	}
	var first bytes.Buffer
	if err := EncodeLotReport(&first, lr); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeLotReport(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var second bytes.Buffer
	if err := EncodeLotReport(&second, got); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("lot report round-trip not bit-identical:\nfirst:\n%s\nsecond:\n%s",
			first.String(), second.String())
	}
	if got.Detected != 1 || got.Unstable != 1 || len(got.Dies) != 2 {
		t.Errorf("lot shape changed: %+v", got)
	}
	if !math.IsNaN(got.Dies[1].FinalMag) {
		t.Errorf("unstable die's NaN FinalMag not preserved: %v", got.Dies[1].FinalMag)
	}
	if got.SRPD != lr.SRPD {
		t.Errorf("SRPD summary changed: %+v vs %+v", got.SRPD, lr.SRPD)
	}
}

func TestReportFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rep := sampleReport(true)
	path := dir + "/report.json"
	if err := WriteReportFile(path, rep); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadReportFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !math.IsNaN(got.FinalSRPD) {
		t.Errorf("FinalSRPD = %v, want NaN", got.FinalSRPD)
	}

	lot := &core.LotReport{Dies: []core.DieResult{{Die: 0, Report: rep, FinalMag: math.NaN()}}, Unstable: 1}
	lotPath := dir + "/lot.json"
	if err := WriteLotReportFile(lotPath, lot); err != nil {
		t.Fatalf("write lot: %v", err)
	}
	gotLot, err := ReadLotReportFile(lotPath)
	if err != nil {
		t.Fatalf("read lot: %v", err)
	}
	if gotLot.Unstable != 1 || len(gotLot.Dies) != 1 {
		t.Errorf("lot changed: %+v", gotLot)
	}
}

// TestAppliedModNaNRoundTrip: a strategic modification scored on an
// unstable pair carries a NaN S-RPD. The report must still encode, and
// the NaN must come back bit-for-bit (previously the encoder failed and
// the service answered 200 with an empty body).
func TestAppliedModNaNRoundTrip(t *testing.T) {
	rep := sampleReport(false)
	rep.Strategic.Applied[0].SRPDBefore = math.NaN()
	var first bytes.Buffer
	if err := EncodeReport(&first, rep); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeReport(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	mod := got.Strategic.Applied[0]
	if math.Float64bits(mod.SRPDBefore) != math.Float64bits(math.NaN()) {
		t.Errorf("SRPDBefore = %v, want NaN", mod.SRPDBefore)
	}
	if mod.SRPDAfter != 0.42 || mod.Cell != rep.Strategic.Applied[0].Cell || mod.Kind != core.EliminateTwo {
		t.Errorf("applied modification changed across the round trip: %+v", mod)
	}
	var second bytes.Buffer
	if err := EncodeReport(&second, got); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("round trip not bit-identical:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
	}
}
