package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"superpose/internal/atpg"
	"superpose/internal/netlist"
	"superpose/internal/parallel"
	"superpose/internal/power"
	"superpose/internal/scan"
)

// ErrUnstable marks a detection run the tester's faults defeated: the
// acquisition policy could not stabilize a single seed reading. The
// condition is transient from the caller's perspective — a retry against
// the same die may succeed once the fault window passes — which is
// exactly how the service layer classifies it.
var ErrUnstable = errors.New("core: acquisition unstable")

// Config drives the end-to-end detection pipeline.
type Config struct {
	// NumChains is the scan configuration (default 4).
	NumChains int
	// Mode is the pattern application technique; the methodology is built
	// for LOS (default). LOC is supported for the ablation study.
	Mode scan.Mode
	// SeedPatterns, when non-empty, replaces ATPG as the seed source
	// (§IV-B: "the adaptive methodology is agnostic as to the source of
	// the test pattern, provided LOS is used").
	SeedPatterns []*scan.Pattern
	// ATPG configures seed generation when SeedPatterns is empty.
	ATPG atpg.Options
	// MaxSeeds bounds how many of the strongest seed patterns get a full
	// adaptive run (default 3).
	MaxSeeds int
	// Adaptive and Strategic tune the two search stages.
	Adaptive  AdaptiveOptions
	Strategic StrategicOptions
	// Varsigma is the assumed intra-die variation magnitude (3σ_intra)
	// used for the final verdict: a signal is a detection when it exceeds
	// what ς can explain. Default 0.25, the paper's most extreme case.
	Varsigma float64
	// MaxPairs is how many of the top flagged pairs (by significance)
	// receive the full strategic-modification treatment (default 3).
	MaxPairs int
	// Acquisition, when non-zero, replaces the device's measurement-
	// acquisition policy before the run (see AcquisitionPolicy,
	// NaiveAcquisition, RobustAcquisition). The zero value leaves the
	// device's configured policy untouched.
	Acquisition AcquisitionPolicy
	// Channel is ignored.
	//
	// Deprecated: power is the only side channel, so there is nothing
	// left to select; the field remains so existing callers keep
	// compiling.
	Channel Channel
	// Progress, when non-nil, receives per-phase progress events
	// (seeds, calibration, adaptive climb, pair analysis, confirmation).
	// Reporting never alters the flow; see ProgressFunc for the
	// concurrency contract.
	Progress ProgressFunc
}

func (c Config) withDefaults() Config {
	if c.NumChains == 0 {
		c.NumChains = 4
	}
	if c.MaxSeeds == 0 {
		c.MaxSeeds = 3
	}
	if c.Varsigma == 0 {
		c.Varsigma = 0.25
	}
	if c.MaxPairs == 0 {
		c.MaxPairs = 3
	}
	return c
}

// Report is the outcome of a certification run on one device. It is a
// wire type: the json tags define the certification service's response
// schema, and the custom marshaler keeps the NaN-capable verdict fields
// (an unstable die's FinalSRPD) JSON-safe (see wire.go).
type Report struct {
	// Seed stage.
	ATPGSummary string        `json:"atpg_summary,omitempty"`
	SeedReading Reading       `json:"seed_reading"` // the strongest seed pattern's reading
	SeedPattern *scan.Pattern `json:"seed_pattern,omitempty"`

	// Adaptive stage (best across seeds).
	Adaptive        *AdaptiveResult `json:"adaptive,omitempty"`
	AdaptiveReading Reading         `json:"adaptive_reading"`

	// Superposition stage. HasPair is false when no suspicious drop was
	// ever flagged — the expected outcome on a Trojan-free device.
	HasPair       bool            `json:"has_pair"`
	Superposition PairAnalysis    `json:"superposition"` // the flagged pair, as found (§IV-C)
	Strategic     StrategicResult `json:"strategic"`
	// Confirmed is the verdict pair re-measured fresh: the strategic
	// winner was *selected* as a maximum over measured states, so its
	// recorded reading carries selection bias — and under tester faults a
	// single inflated reading can be that maximum. The verdict uses the
	// median-magnitude confirmation instead; on an ideal tester every
	// re-measurement is identical and Confirmed equals Strategic.Final.
	Confirmed PairAnalysis `json:"confirmed"`

	// Acquisition summarizes this run's measurement-acquisition work:
	// passes, retries, samples dropped by the tester or rejected as
	// outliers, and readings that never stabilized. UnstableSeeds counts
	// seed patterns excluded from ranking because their reading came
	// back NaN; UnstablePairs counts flagged pairs excluded from the
	// verdict for the same reason — the graceful-degradation path under
	// severe tester faults.
	Acquisition   AcquisitionStats `json:"acquisition"`
	UnstableSeeds int              `json:"unstable_seeds"`
	UnstablePairs int              `json:"unstable_pairs"`

	// Verdict.
	FinalSRPD float64 `json:"final_srpd"`
	// FinalZ is the final pair's residual in benign standard deviations
	// (Significance / σ_intra with σ_intra = Varsigma/3).
	FinalZ   float64 `json:"final_z"`
	Varsigma float64 `json:"varsigma"`
	Detected bool    `json:"detected"`
}

// DetectionProbabilityAt evaluates the Eq. 3 bound for the report's final
// signal at a given 3σ_intra.
func (r *Report) DetectionProbabilityAt(varsigma float64) float64 {
	return DetectionProbability(r.FinalSRPD, varsigma)
}

// Summary renders a human-readable digest.
func (r *Report) Summary() string {
	verdict := "CLEAN (no signal beyond process variation)"
	if r.Detected {
		verdict = fmt.Sprintf("TROJAN DETECTED (|S-RPD| %.4f vs benign bound %.4f, z=%.1f)",
			abs(r.FinalSRPD), r.Varsigma, r.FinalZ)
	}
	s := fmt.Sprintf("seed RPD %.5f; adaptive RPD %.5f", r.SeedReading.RPD, r.AdaptiveReading.RPD)
	if r.HasPair {
		s += fmt.Sprintf("; superposition S-RPD %.5f; strategic S-RPD %.5f",
			r.Superposition.SRPD, r.Strategic.Final.SRPD)
	}
	return s + "; " + verdict
}

// Detect runs the full pipeline of the paper against one device:
//
//  1. obtain LOS TDF seed patterns (ATPG on the golden netlist),
//  2. rank seeds by suspicious signal and run the adaptive
//     transition-reduction flow on the strongest ones,
//  3. when a suspiciously large adjacent-pattern drop appears, analyze the
//     pair through superposition,
//  4. align the pair further with the strategic modification suite,
//  5. compare the final S-RPD against what intra-die variation can explain.
func Detect(golden *netlist.Netlist, lib *power.Library, dev *Device, cfg Config) (*Report, error) {
	return DetectContext(context.Background(), golden, lib, dev, cfg)
}

// DetectContext is Detect under a run context. The context is bound to
// the device's acquisition (see Device.SetContext) and checked between
// pipeline phases, between adaptive climb rounds and between pair
// analyses, so a cancellation or deadline expiry aborts the run
// mid-climb — returning ctx's error, never a report built from partial
// measurements. With a background context it is bit-identical to Detect.
//
// A run holds one CPU of the process-wide budget (see parallel.Hold);
// a long reading overlaps its golden half with its physical half on a
// second CPU whenever the budget has one free (see Evaluator.sides).
func DetectContext(ctx context.Context, golden *netlist.Netlist, lib *power.Library, dev *Device, cfg Config) (*Report, error) {
	defer parallel.Hold()()
	cfg = cfg.withDefaults()
	if cfg.Acquisition != (AcquisitionPolicy{}) {
		dev.SetAcquisition(cfg.Acquisition)
	}
	dev.SetContext(ctx)
	acqStart := dev.AcquisitionStats()
	ev := NewEvaluator(golden, lib, dev, cfg.NumChains, cfg.Mode)
	defer ev.Close() // the workbench is per-Detect; its pooled buffers recycle across dies

	seeds := cfg.SeedPatterns
	rep := &Report{Varsigma: cfg.Varsigma}
	if len(seeds) == 0 {
		cfg.Progress.emit(StageSeeds, 0, 0, "generating ATPG seed patterns")
		gen, err := atpg.Generate(ev.Chains(), cfg.ATPG)
		if err != nil {
			return nil, fmt.Errorf("core: seed generation: %w", err)
		}
		if len(gen.Patterns) == 0 {
			return nil, fmt.Errorf("core: ATPG produced no seed patterns")
		}
		seeds = gen.Patterns
		rep.ATPGSummary = gen.String()
	}
	cfg.Progress.emit(StageSeeds, len(seeds), len(seeds), "seed patterns ready")
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Per-die characterization: estimate the global (inter-die) power
	// scale from the seed set so the self-referencing analysis only faces
	// intra-die variation, as §V-D assumes. With a drift window
	// configured, the first seed becomes the reference pattern whose
	// periodic re-measurement tracks slow tester drift on top of the
	// one-time calibration.
	cfg.Progress.emit(StageCalibrate, 0, 0, "per-die power-scale calibration")
	ev.Calibrate(seeds)
	if dev.Acquisition().DriftWindow > 0 {
		ev.SetDriftReference(seeds[0])
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Rank seeds by RPD. Seeds whose reading the acquisition layer could
	// not stabilize (NaN) are excluded from ranking and annotated in the
	// report rather than silently steering it.
	type ranked struct {
		p *scan.Pattern
		r Reading
	}
	var rankedSeeds []ranked
	for i, r := range ev.MeasureBatch(seeds) {
		if math.IsNaN(r.RPD) || math.IsNaN(r.Observed) {
			rep.UnstableSeeds++
			continue
		}
		rankedSeeds = append(rankedSeeds, ranked{seeds[i], r})
	}
	if len(rankedSeeds) == 0 {
		// Cancellation mid-ranking floods the batch with NaN readings;
		// report the abort, not a tester-instability diagnosis. The same
		// goes for an injected acquisition fault held sticky on the device.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := ev.dev.Err(); err != nil {
			return nil, fmt.Errorf("core: acquisition aborted: %w", err)
		}
		return nil, fmt.Errorf("%w: no seed pattern produced a stable reading (%d unstable; tester faults beyond the acquisition policy's reach)", ErrUnstable, rep.UnstableSeeds)
	}
	for i := 1; i < len(rankedSeeds); i++ { // insertion sort by RPD desc
		for j := i; j > 0 && rankedSeeds[j].r.RPD > rankedSeeds[j-1].r.RPD; j-- {
			rankedSeeds[j], rankedSeeds[j-1] = rankedSeeds[j-1], rankedSeeds[j]
		}
	}
	rep.SeedPattern = rankedSeeds[0].p
	rep.SeedReading = rankedSeeds[0].r

	// Adaptive runs on the strongest seeds.
	nSeeds := cfg.MaxSeeds
	if nSeeds > len(rankedSeeds) {
		nSeeds = len(rankedSeeds)
	}
	var flagged []PairCandidate
	aopt := cfg.Adaptive
	if aopt.Progress == nil {
		aopt.Progress = cfg.Progress
	}
	for i := 0; i < nSeeds; i++ {
		cfg.Progress.emit(StageAdaptive, i, nSeeds, "adaptive climb from ranked seed")
		ar, err := ev.AdaptiveContext(ctx, rankedSeeds[i].p, aopt)
		if err != nil {
			return nil, err
		}
		best := ar.Steps[ar.Best]
		if rep.Adaptive == nil || best.Reading.RPD > rep.AdaptiveReading.RPD {
			rep.Adaptive = ar
			rep.AdaptiveReading = best.Reading
		}
		flagged = append(flagged, ar.Pairs...)
	}
	// Rank flagged pairs by significance and give the strongest few the
	// full strategic treatment; a genuine Trojan residual is magnified as
	// the alignment walk shrinks the unique activity, while a mined
	// process-variation residual shrinks together with the unique gates
	// that produced it.
	for i := 1; i < len(flagged); i++ { // insertion sort, descending
		for j := i; j > 0 && flagged[j].Significance > flagged[j-1].Significance; j-- {
			flagged[j], flagged[j-1] = flagged[j-1], flagged[j]
		}
	}
	nPairs := cfg.MaxPairs
	if nPairs > len(flagged) {
		nPairs = len(flagged)
	}

	var finalSig float64
	if nPairs > 0 {
		kept := false
		for i := 0; i < nPairs; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cfg.Progress.emit(StagePairs, i, nPairs, "superposition + strategic pair analysis")
			pc := flagged[i]
			sup := ev.AnalyzePair(pc.A, pc.B)
			st := ev.StrategicModify(pc.A, pc.B, pc.Critical, cfg.Strategic)
			// A pair whose strategic walk never produced a stable
			// reading is excluded from the verdict and annotated,
			// rather than letting its NaN poison the comparison (NaN
			// wins every `>` by making it false).
			if math.IsNaN(st.Final.SRPD) {
				rep.UnstablePairs++
				continue
			}
			if !kept || abs(st.Final.SRPD) > abs(rep.Strategic.Final.SRPD) {
				rep.Superposition = sup
				rep.Strategic = st
				kept = true
			}
		}
		if kept {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cfg.Progress.emit(StageConfirm, 0, 0, "verdict-pair confirmation")
			rep.HasPair = true
			rep.Confirmed = confirmPair(ev, rep.Strategic.Final)
			rep.FinalSRPD = rep.Confirmed.SRPD
			finalSig = rep.Confirmed.Significance()
			if s := rep.Superposition.Significance(); s > finalSig {
				finalSig = s
			}
		} else {
			// Every flagged pair was unstable: the die cannot be
			// certified under this tester. Deliver NaN so lot
			// accounting reports it as unstable instead of clean.
			rep.FinalSRPD = math.NaN()
		}
	} else {
		// No pair: fall back to the best adjacent pair of the adaptive
		// trajectory so the verdict still has a superposition reading.
		if len(rep.Adaptive.Steps) >= 2 {
			bi := rep.Adaptive.Best
			if bi == 0 {
				bi = 1
			}
			rep.Superposition = ev.AnalyzePair(rep.Adaptive.Steps[bi-1].Pattern, rep.Adaptive.Steps[bi].Pattern)
			rep.Confirmed = confirmPair(ev, rep.Superposition)
			rep.FinalSRPD = rep.Confirmed.SRPD
			finalSig = rep.Confirmed.Significance()
		}
	}

	// A cancellation during the final measurements must not deliver a
	// verdict mined from NaN-degraded readings.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Verdict: the Eq. 3 bound on the ratio metric. The residual's
	// z-score is reported for diagnostics only — the adaptive climb
	// concentrates activity on the die's most PV-positive gates, so on a
	// clean die the mined maximum z runs well above blind extreme-value
	// estimates (≈5–6σ observed) and is no safe criterion.
	sigmaIntra := cfg.Varsigma / 3
	if sigmaIntra > 0 {
		rep.FinalZ = finalSig / sigmaIntra
	}
	rep.Detected = abs(rep.FinalSRPD) > MaxBenignSRPD(cfg.Varsigma)

	rep.Acquisition = dev.AcquisitionStats().Sub(acqStart)
	return rep, nil
}

// confirmPair re-measures a verdict pair fresh and returns the analysis
// of median |S-RPD| among the stable re-measurements, falling back to
// the recorded state when none re-measures stably. With an even number
// of stable readings the smaller-magnitude middle is chosen — the
// conservative verdict. On an ideal tester every re-measurement is
// bit-identical, so confirmation never changes a clean-path verdict.
func confirmPair(ev *Evaluator, fin PairAnalysis) PairAnalysis {
	var stable []PairAnalysis
	for k := 0; k < 3; k++ {
		if pa := ev.AnalyzePair(fin.A, fin.B); !math.IsNaN(pa.SRPD) {
			stable = append(stable, pa)
		}
	}
	if len(stable) == 0 {
		return fin
	}
	for i := 1; i < len(stable); i++ { // insertion sort by |S-RPD|
		for j := i; j > 0 && abs(stable[j].SRPD) < abs(stable[j-1].SRPD); j-- {
			stable[j], stable[j-1] = stable[j-1], stable[j]
		}
	}
	return stable[(len(stable)-1)/2]
}
