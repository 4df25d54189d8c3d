package core

import "fmt"

// Aggregation selects how repeated readings of one pattern are collapsed
// into the delivered measurement.
type Aggregation uint8

const (
	// AggMean is the plain average — the classical tester practice, and
	// exactly what a heavy-tailed outlier spike destroys.
	AggMean Aggregation = iota
	// AggMedian is the sample median: immune to any minority of
	// arbitrarily wild samples.
	AggMedian
)

// String names the aggregation.
func (a Aggregation) String() string {
	switch a {
	case AggMean:
		return "mean"
	case AggMedian:
		return "median"
	default:
		return fmt.Sprintf("Aggregation(%d)", uint8(a))
	}
}

// AcquisitionPolicy drives the robust measurement-acquisition layer of a
// Device: how many readings are taken per pattern, how outliers among
// them are rejected, how the survivors are aggregated, and how much
// re-measurement a deficient reading earns. The zero value behaves like
// NaiveAcquisition (one reading, plain mean, no rejection).
type AcquisitionPolicy struct {
	// Repeats is the number of readings taken per pattern (minimum 1).
	Repeats int
	// Aggregation collapses the surviving readings into one value.
	Aggregation Aggregation
	// MADThreshold, when positive, rejects samples more than this many
	// median-absolute-deviations from the sample median before
	// aggregation. Needs at least 3 samples to act.
	MADThreshold float64
	// RetryBudget is the maximum number of extra measurement passes
	// granted when a pattern still has fewer than MinValid surviving
	// samples after the initial Repeats.
	RetryBudget int
	// MinValid is the number of surviving samples a reading needs to be
	// considered stable (minimum 1). A reading that ends below it after
	// the retry budget is exhausted — or with no surviving sample at
	// all — is delivered as NaN and counted in AcquisitionStats.Unstable.
	MinValid int
	// SpreadGate, when positive, is the maximum relative dispersion
	// (MAD over |median|) the surviving samples of a reading may show.
	// A reading above the gate is re-measured from the retry budget and
	// delivered as NaN if it never settles — the defense against burst
	// windows long enough to contaminate every repeat of a small batch,
	// where no point-outlier rejection can help.
	SpreadGate float64
	// DriftWindow, when positive, is the number of delivered readings
	// between reference-pattern re-measurements in the Evaluator's drift
	// compensation (see Evaluator.SetDriftReference).
	DriftWindow int
	// StuckGuard, when set, discards samples that exactly equal the
	// immediately-preceding raw reading of a *different* pattern (or that
	// continue such a run). A latched ADC repeats its value bit-for-bit,
	// so the stale samples of a stuck window are mutually identical —
	// zero dispersion — and sail through both MAD rejection and the
	// spread gate; exact cross-pattern equality is the one observable
	// trace they leave. Repeated readings of the *same* pattern are
	// exempt, so noiseless single-pattern acquisition is unaffected.
	StuckGuard bool
}

// withDefaults clamps the policy to its documented minima.
func (p AcquisitionPolicy) withDefaults() AcquisitionPolicy {
	if p.Repeats < 1 {
		p.Repeats = 1
	}
	if p.MinValid < 1 {
		p.MinValid = 1
	}
	return p
}

// NaiveAcquisition is the classical single-shot policy: one reading per
// pattern, taken at face value. It is exact on an ideal tester and
// collapses under tester pathologies (EXPERIMENTS.md, robustness table).
func NaiveAcquisition() AcquisitionPolicy {
	return AcquisitionPolicy{Repeats: 1, Aggregation: AggMean}
}

// RobustAcquisition is the hardened policy: five readings per pattern,
// 4-MAD outlier rejection, median aggregation, a three-pass retry budget
// for readings left with fewer than three survivors or still showing
// more than 5% relative dispersion, a stuck-latch duplicate guard, and
// drift compensation against a reference pattern every 64 readings. The
// tight drift window matters: the strategic stage shrinks pair
// denominators aggressively, so even sub-percent staleness in the global
// scale estimate can masquerade as signal on a clean die. The spread
// gate matters for small batches, where a burst window outlasts all
// repeats of a reading and no point-outlier rejection can save it —
// better an honest NaN than a confident wrong value. The stuck guard
// matters because a latched ADC produces stale samples that are
// *mutually identical*: a zero-dispersion majority that median, MAD and
// spread gate all trust completely.
func RobustAcquisition() AcquisitionPolicy {
	return AcquisitionPolicy{
		Repeats:      5,
		Aggregation:  AggMedian,
		MADThreshold: 4,
		RetryBudget:  3,
		MinValid:     3,
		SpreadGate:   0.05,
		StuckGuard:   true,
		DriftWindow:  64,
	}
}

// AcquisitionStats counts what the acquisition layer observed and did.
// Unlike tester.Stats (the fault model's ground truth), every counter
// here is visible to a real defender.
type AcquisitionStats struct {
	// Readings is the number of aggregated readings delivered.
	Readings uint64 `json:"readings"`
	// Passes is the number of measurement sweeps over the chip
	// (each sweep reads every pattern of the current batch once).
	Passes uint64 `json:"passes"`
	// Raw is the number of raw samples taken from the tester.
	Raw uint64 `json:"raw"`
	// Dropped is the number of raw samples lost by the tester (NaN).
	Dropped uint64 `json:"dropped"`
	// Rejected is the number of samples discarded by MAD outlier
	// rejection.
	Rejected uint64 `json:"rejected"`
	// Latched is the number of samples discarded by the stuck-latch
	// guard (exact duplicates across different patterns).
	Latched uint64 `json:"latched"`
	// Retries is the number of extra measurement passes spent on
	// readings that were still deficient after the initial repeats.
	Retries uint64 `json:"retries"`
	// Unstable is the number of delivered readings with no surviving
	// sample (reported as NaN and excluded downstream).
	Unstable uint64 `json:"unstable"`
}

// Sub returns the counter deltas s − earlier (for per-run accounting on
// a reused device).
func (s AcquisitionStats) Sub(earlier AcquisitionStats) AcquisitionStats {
	return AcquisitionStats{
		Readings: s.Readings - earlier.Readings,
		Passes:   s.Passes - earlier.Passes,
		Raw:      s.Raw - earlier.Raw,
		Dropped:  s.Dropped - earlier.Dropped,
		Rejected: s.Rejected - earlier.Rejected,
		Latched:  s.Latched - earlier.Latched,
		Retries:  s.Retries - earlier.Retries,
		Unstable: s.Unstable - earlier.Unstable,
	}
}

// String renders the counters compactly.
func (s AcquisitionStats) String() string {
	return fmt.Sprintf("readings %d (passes %d, raw %d; dropped %d, rejected %d, latched %d, retries %d, unstable %d)",
		s.Readings, s.Passes, s.Raw, s.Dropped, s.Rejected, s.Latched, s.Retries, s.Unstable)
}
