package core

// JSON wire support for the report types. encoding/json refuses NaN and
// ±Inf outright, but the flow legitimately produces NaN in the verdict
// fields (an unstable reading, an unstable die's |S-RPD|). The nanf
// carrier type below encodes NaN as null and ±Inf as strings, and the
// types whose floats can go non-finite (Reading, PairAnalysis,
// AppliedMod, Report, DieResult) shadow exactly those fields through it, so Report and
// LotReport round-trip through JSON bit-for-bit — the certification
// service's contract.

import (
	"encoding/json"
	"fmt"
	"math"
)

// nanf is a float64 that survives JSON: NaN ↔ null, ±Inf ↔ "+Inf"/"-Inf",
// finite values as ordinary numbers.
type nanf float64

func (f nanf) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte("null"), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

func (f *nanf) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case "null", `"NaN"`:
		*f = nanf(math.NaN())
		return nil
	case `"+Inf"`, `"Inf"`:
		*f = nanf(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = nanf(math.Inf(-1))
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return fmt.Errorf("core: non-finite float literal %s: %w", b, err)
	}
	*f = nanf(v)
	return nil
}

// readingWire mirrors Reading with NaN-safe floats: an unstable
// acquisition delivers NaN through all three fields.
type readingWire struct {
	Observed nanf `json:"observed"`
	Nominal  nanf `json:"nominal"`
	RPD      nanf `json:"rpd"`
}

func (r Reading) MarshalJSON() ([]byte, error) {
	return json.Marshal(readingWire{nanf(r.Observed), nanf(r.Nominal), nanf(r.RPD)})
}

func (r *Reading) UnmarshalJSON(b []byte) error {
	var w readingWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*r = Reading{float64(w.Observed), float64(w.Nominal), float64(w.RPD)}
	return nil
}

// The observed powers and the S-RPD built from them go NaN on an
// unstable pair; the golden-model fields are always finite.
func (pa PairAnalysis) MarshalJSON() ([]byte, error) {
	type alias PairAnalysis
	return json.Marshal(struct {
		alias
		ObservedA nanf `json:"observed_a"`
		ObservedB nanf `json:"observed_b"`
		SRPD      nanf `json:"srpd"`
	}{alias(pa), nanf(pa.ObservedA), nanf(pa.ObservedB), nanf(pa.SRPD)})
}

func (pa *PairAnalysis) UnmarshalJSON(b []byte) error {
	type alias PairAnalysis
	var w struct {
		alias
		ObservedA nanf `json:"observed_a"`
		ObservedB nanf `json:"observed_b"`
		SRPD      nanf `json:"srpd"`
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*pa = PairAnalysis(w.alias)
	pa.ObservedA = float64(w.ObservedA)
	pa.ObservedB = float64(w.ObservedB)
	pa.SRPD = float64(w.SRPD)
	return nil
}

// A strategic modification scored on an unstable pair carries a NaN
// S-RPD on either side.
func (m AppliedMod) MarshalJSON() ([]byte, error) {
	type alias AppliedMod
	return json.Marshal(struct {
		alias
		SRPDBefore nanf `json:"srpd_before"`
		SRPDAfter  nanf `json:"srpd_after"`
	}{alias(m), nanf(m.SRPDBefore), nanf(m.SRPDAfter)})
}

func (m *AppliedMod) UnmarshalJSON(b []byte) error {
	type alias AppliedMod
	var w struct {
		alias
		SRPDBefore nanf `json:"srpd_before"`
		SRPDAfter  nanf `json:"srpd_after"`
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*m = AppliedMod(w.alias)
	m.SRPDBefore = float64(w.SRPDBefore)
	m.SRPDAfter = float64(w.SRPDAfter)
	return nil
}

func (r Report) MarshalJSON() ([]byte, error) {
	type alias Report
	return json.Marshal(struct {
		alias
		FinalSRPD nanf `json:"final_srpd"`
		FinalZ    nanf `json:"final_z"`
	}{alias(r), nanf(r.FinalSRPD), nanf(r.FinalZ)})
}

func (r *Report) UnmarshalJSON(b []byte) error {
	type alias Report
	var w struct {
		alias
		FinalSRPD nanf `json:"final_srpd"`
		FinalZ    nanf `json:"final_z"`
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*r = Report(w.alias)
	r.FinalSRPD = float64(w.FinalSRPD)
	r.FinalZ = float64(w.FinalZ)
	return nil
}

func (d DieResult) MarshalJSON() ([]byte, error) {
	type alias DieResult
	return json.Marshal(struct {
		alias
		FinalMag nanf `json:"final_mag"`
	}{alias(d), nanf(d.FinalMag)})
}

func (d *DieResult) UnmarshalJSON(b []byte) error {
	type alias DieResult
	var w struct {
		alias
		FinalMag nanf `json:"final_mag"`
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*d = DieResult(w.alias)
	d.FinalMag = float64(w.FinalMag)
	return nil
}
