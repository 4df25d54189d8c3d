package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"superpose/internal/atpg"
	"superpose/internal/netlist"
	"superpose/internal/parallel"
	"superpose/internal/power"
	"superpose/internal/scan"
	"superpose/internal/stats"
	"superpose/internal/tester"
)

// LotOptions describes a manufacturing lot to certify.
type LotOptions struct {
	// Dies is the lot size (default 5).
	Dies int
	// Variation is the per-die process draw.
	Variation power.Variation
	// Seed selects the lot (die i uses Seed + i·0x9E37).
	Seed uint64
	// MeasurementNoise, when positive, adds relative Gaussian noise to
	// every power reading (tester noise), exercising the flow's
	// robustness beyond pure process variation.
	MeasurementNoise float64
	// Tester, when enabled, interposes a tester fault model (outlier
	// spikes, dropped readings, drift, burst noise, stuck latches) on
	// every die's reading stream; see tester.Config and tester.Preset.
	// Each die gets an independent, reproducible fault realization
	// derived from Tester.Seed and the die index.
	Tester tester.Config
	// Acquisition, when non-zero, sets every die device's measurement-
	// acquisition policy (see AcquisitionPolicy); it also propagates to
	// Config.Acquisition so Detect does not reset it.
	Acquisition AcquisitionPolicy
	// Workers bounds the per-die fan-out of the certification (see
	// internal/parallel): 0 means one worker per CPU, 1 the exact legacy
	// serial path. Every worker count produces bit-identical lot reports —
	// each die's seeds derive from its index alone.
	Workers int
	// Progress, when non-nil, receives a StageDie event as each die's
	// certification completes (Step = dies finished so far, Total =
	// Dies). Dies fan out across workers, so the callback MUST be safe
	// for concurrent use; completion order is scheduling-dependent even
	// though the lot report itself is bit-identical at any worker count.
	Progress ProgressFunc
}

func (o LotOptions) withDefaults() LotOptions {
	if o.Dies == 0 {
		o.Dies = 5
	}
	return o
}

// DieResult is one die's certification outcome within a lot.
type DieResult struct {
	Die      int     `json:"die"`
	Seed     uint64  `json:"seed"`
	Report   *Report `json:"report,omitempty"`
	FinalMag float64 `json:"final_mag"` // |FinalSRPD|
}

// LotReport aggregates a lot certification. Like Report it is a wire
// type for the certification service (see wire.go for the NaN handling
// on the per-die FinalMag).
type LotReport struct {
	Dies     []DieResult   `json:"dies"`
	Detected int           `json:"detected"`
	SRPD     stats.Summary `json:"srpd"` // of |FinalSRPD| across dies (stable dies only)
	// Unstable counts dies whose final signal never stabilized under the
	// tester fault model (NaN |S-RPD|); they are excluded from the SRPD
	// summary and can never be Detected.
	Unstable int `json:"unstable"`
	// Acquisition accumulates the acquisition counters across dies.
	Acquisition AcquisitionStats `json:"acquisition"`
}

// DetectionRate returns the fraction of dies flagged.
func (lr *LotReport) DetectionRate() float64 {
	if len(lr.Dies) == 0 {
		return 0
	}
	return float64(lr.Detected) / float64(len(lr.Dies))
}

// String summarizes the lot.
func (lr *LotReport) String() string {
	s := fmt.Sprintf("lot: %d/%d dies flagged; |S-RPD| mean %.4f [%.4f, %.4f]",
		lr.Detected, len(lr.Dies), lr.SRPD.Mean, lr.SRPD.Min, lr.SRPD.Max)
	if lr.Unstable > 0 {
		s += fmt.Sprintf("; %d unstable", lr.Unstable)
	}
	return s
}

// CertifyLot manufactures `Dies` instances of the physical netlist (which
// may or may not carry a Trojan — the caller decides what reality to
// simulate) and runs the full detection pipeline against each, with the
// golden netlist as reference. Each die gets an independent process-
// variation draw; the detection flow itself is identical across dies.
//
// On an infected lot the detection rate estimates the method's true
// positive rate at the configured variation; on a clean lot it estimates
// the false positive rate.
func CertifyLot(golden *netlist.Netlist, lib *power.Library, physical *netlist.Netlist,
	cfg Config, lot LotOptions) (*LotReport, error) {
	return CertifyLotContext(context.Background(), golden, lib, physical, cfg, lot)
}

// CertifyLotContext is CertifyLot under a run context: the per-die
// fan-out stops dispatching on cancellation and every in-flight die's
// Detect aborts mid-climb (see DetectContext), so a cancelled lot
// certification returns promptly with ctx's error instead of running the
// remaining dies to completion. With a background context it is
// bit-identical to CertifyLot.
func CertifyLotContext(ctx context.Context, golden *netlist.Netlist, lib *power.Library,
	physical *netlist.Netlist, cfg Config, lot LotOptions) (*LotReport, error) {
	lot = lot.withDefaults()
	cfg = cfg.withDefaults()
	if lot.Acquisition != (AcquisitionPolicy{}) {
		// Hoisted out of the per-die work: cfg must be immutable while
		// the dies fan out (it is captured by every worker).
		cfg.Acquisition = lot.Acquisition
	}
	// A per-die detect progress callback would interleave across worker
	// goroutines into noise; the lot reports die-granular progress via
	// lot.Progress instead.
	cfg.Progress = nil

	// Fan out per die. Each die's entire state — chip, device, tester
	// fault realization, evaluator — is constructed inside its own item
	// from seeds derived purely from the die index, so the fan-out is
	// bit-reproducible at any worker count; the fan-in below runs in die
	// order, identically to the legacy serial loop.
	var done atomic.Int64
	dies, err := parallel.Map(ctx, lot.Workers, lot.Dies,
		func(die int) (DieResult, error) {
			seed := lot.Seed + uint64(die)*0x9E37
			chip := power.Manufacture(physical, lib, lot.Variation, seed)
			if lot.MeasurementNoise > 0 {
				chip.SetMeasurementNoise(lot.MeasurementNoise)
			}
			dev := NewDevice(chip, cfg.NumChains, cfg.Mode)
			defer dev.Close() // per-die device; recycle its pooled buffers
			if lot.Tester.Enabled() {
				tc := lot.Tester
				// Per-die fault realization, decorrelated from the process
				// draw but reproducible from the lot seed.
				tc.Seed ^= seed * 0x9E3779B97F4A7C15
				dev.SetFaultModel(tester.New(tc))
			}
			rep, err := DetectContext(ctx, golden, lib, dev, cfg)
			if err != nil {
				return DieResult{}, fmt.Errorf("core: die %d: %w", die, err)
			}
			lot.Progress.emit(StageDie, int(done.Add(1)), lot.Dies, "die certified")
			return DieResult{Die: die, Seed: seed, Report: rep, FinalMag: abs(rep.FinalSRPD)}, nil
		})
	if err != nil {
		return nil, err
	}

	lr := &LotReport{Dies: dies}
	var mags []float64
	for _, d := range dies {
		if d.Report.Detected {
			lr.Detected++
		}
		if math.IsNaN(d.FinalMag) {
			lr.Unstable++
		} else {
			mags = append(mags, d.FinalMag)
		}
		lr.Acquisition = lr.Acquisition.add(d.Report.Acquisition)
	}
	lr.SRPD = stats.Summarize(mags)
	return lr, nil
}

// WithSharedSeeds generates the ATPG seed patterns once and stamps them
// into the config, so a lot certification does not regenerate them per
// die: the seeds depend only on the golden netlist. A config that already
// carries seed patterns is returned unchanged.
func WithSharedSeeds(golden *netlist.Netlist, cfg Config) (Config, error) {
	if len(cfg.SeedPatterns) > 0 {
		return cfg, nil
	}
	cfg = cfg.withDefaults()
	ch := scan.Configure(golden, cfg.NumChains)
	gen, err := atpg.Generate(ch, cfg.ATPG)
	if err != nil {
		return cfg, err
	}
	cfg.SeedPatterns = gen.Patterns
	return cfg, nil
}
