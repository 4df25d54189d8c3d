package netio

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"superpose/internal/core"
)

// EncodeReport writes a certification report as indented JSON. The
// encoding is NaN-safe (see core's wire marshalers) and round-trips
// bit-identically through DecodeReport.
func EncodeReport(w io.Writer, r *core.Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// DecodeReport reads a JSON certification report.
func DecodeReport(r io.Reader) (*core.Report, error) {
	var rep core.Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("netio: decode report: %w", err)
	}
	return &rep, nil
}

// EncodeLotReport writes a lot certification report as indented JSON.
func EncodeLotReport(w io.Writer, lr *core.LotReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(lr)
}

// DecodeLotReport reads a JSON lot certification report.
func DecodeLotReport(r io.Reader) (*core.LotReport, error) {
	var lr core.LotReport
	if err := json.NewDecoder(r).Decode(&lr); err != nil {
		return nil, fmt.Errorf("netio: decode lot report: %w", err)
	}
	return &lr, nil
}

// WriteReportFile saves a report to path as JSON.
func WriteReportFile(path string, r *core.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := EncodeReport(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadReportFile loads a JSON report from path.
func ReadReportFile(path string) (*core.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeReport(f)
}

// WriteLotReportFile saves a lot report to path as JSON.
func WriteLotReportFile(path string, lr *core.LotReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := EncodeLotReport(f, lr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadLotReportFile loads a JSON lot report from path.
func ReadLotReportFile(path string) (*core.LotReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeLotReport(f)
}
