package core

import (
	"math"
	"sort"
	"time"

	"superpose/internal/logic"
	"superpose/internal/netlist"
	"superpose/internal/parallel"
	"superpose/internal/power"
	"superpose/internal/scan"
)

// Evaluator is the defender's workbench: the golden (Trojan-free) netlist
// with its nominal power model on one side, the physical Device on the
// other. Everything the detection flow knows is computed here.
type Evaluator struct {
	chains *scan.Chains // on the golden netlist
	eng    *scan.Engine // golden-model activity prediction
	model  *power.Model
	dev    *Device
	mode   scan.Mode

	// scale is the per-die calibration factor (see Calibrate): observed
	// powers are divided by it, which is what makes the methodology
	// self-referential with respect to inter-die variation.
	scale float64

	// Drift compensation (see SetDriftReference): every driftWindow
	// delivered readings the reference pattern is re-measured and the
	// running driftScale updated, so a slow thermal ramp in the tester
	// divides out of all subsequent observations.
	driftRef    *scan.Pattern
	driftBase   float64
	driftScale  float64
	driftWindow int
	sinceRef    int

	// ids/masks hold the sparse golden toggle encoding of the last batch
	// launch (see toggled), which AnalyzePairs decomposes; noms and out
	// are the per-lane nominals and Readings of the last measurement
	// (see readLanes).
	ids   []int
	masks []logic.Word
	noms  []float64
	out   []Reading

	// uids/umasks, nomU/sqU and toggledN/uniqueN back the mask-level
	// pair decomposition (decompose, analyzeLanes): the compacted
	// unique-activity encoding of a chunk, its per-lane nominal and
	// squared-energy sums, and its per-lane toggled and unique gate
	// counts. The strategic search decomposes one 32-pair chunk after
	// another; only counts and sums escape, so one grown-to-high-water
	// buffer per Evaluator serves every call without per-chunk garbage.
	uids     []int
	umasks   []logic.Word
	nomU     []float64
	sqU      []float64
	toggledN [64]int
	uniqueN  [64]int

	// goldenTook is how long the last golden half took (see sides).
	goldenTook time.Duration

	// sw is the workbench's sweep session (see sweep), built on first
	// use: its flip list depends only on the scan shape, so one session
	// serves every climb and every strategic search.
	sw *Sweep
}

// NewEvaluator assembles the workbench. The scan configuration is built on
// the golden netlist with numChains chains; the device must have been
// created with the same chain count.
func NewEvaluator(golden *netlist.Netlist, lib *power.Library, dev *Device, numChains int, mode scan.Mode) *Evaluator {
	return NewEvaluatorFromChains(golden, lib, dev, scan.Configure(golden, numChains), mode)
}

// NewEvaluatorFromChains assembles the workbench over an explicit scan
// configuration (which must structurally match the device's — see
// NewDeviceFromChains).
func NewEvaluatorFromChains(golden *netlist.Netlist, lib *power.Library, dev *Device, ch *scan.Chains, mode scan.Mode) *Evaluator {
	return &Evaluator{
		chains:     ch,
		eng:        scan.NewEngine(ch),
		model:      power.NewModel(golden, lib),
		dev:        dev,
		mode:       mode,
		scale:      1,
		driftScale: 1,
	}
}

// Close returns the workbench's pooled simulation buffers — the golden
// engine's frames and the sweep session, if built — to the shared pools.
// The device is owned by the caller and stays open. The Evaluator must
// not be used afterwards; Close is idempotent.
func (ev *Evaluator) Close() {
	if ev.sw != nil {
		ev.sw.Close()
	}
	ev.eng.Close()
}

// launch runs a golden-model simulation of 1..64 patterns. Callers chunk
// larger sets; an out-of-range batch here is an internal invariant
// violation, not a user error.
func (ev *Evaluator) launch(pats []*scan.Pattern) {
	if _, _, err := ev.eng.Launch(pats, ev.mode); err != nil {
		panic(err.Error())
	}
}

// toggled launches 1..64 patterns on the golden model and returns the
// predicted activity as a sparse toggle encoding, held in
// ev.ids/ev.masks until the next launch.
func (ev *Evaluator) toggled(pats []*scan.Pattern) ([]int, []logic.Word) {
	ev.launch(pats)
	ev.ids, ev.masks = ev.eng.Toggled(ev.ids, ev.masks)
	return ev.ids, ev.masks
}

// Calibrate estimates this die's global power scale — the inter-die
// variation component, which multiplies every gate of the chip equally —
// as the median of observed/nominal over a set of patterns, and corrects
// all subsequent measurements by it. This is the "dissecting and
// understanding the characteristics of a given manufactured IC" step of
// the paper's self-referential methodology (§V-D: inter-die variation has
// no opportunity to disrupt behaviour). The median is robust to the tiny
// Trojan contamination of individual readings. It returns the estimated
// scale.
func (ev *Evaluator) Calibrate(pats []*scan.Pattern) float64 {
	var ratios []float64
	for start := 0; start < len(pats); start += 64 {
		end := start + 64
		if end > len(pats) {
			end = len(pats)
		}
		batch := pats[start:end]
		var observed []float64
		ev.sides(func() { observed = ev.dev.MeasureBatch(batch) }, func() {
			ids, masks := ev.toggled(batch)
			ev.noms = ev.model.NominalLanesSparse(ids, masks, len(batch), ev.noms)
		})
		for i, nom := range ev.noms {
			// Readings the acquisition layer could not stabilize (NaN)
			// carry no calibration information; the median over the
			// survivors stays robust to losing a few.
			if nom > 0 && !math.IsNaN(observed[i]) {
				ratios = append(ratios, observed[i]/nom)
			}
		}
	}
	if len(ratios) == 0 {
		return ev.scale
	}
	sort.Float64s(ratios)
	med := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		med = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
	}
	if med > 0 {
		ev.scale = med
	}
	return ev.scale
}

// Scale returns the current calibration factor (1 when uncalibrated).
func (ev *Evaluator) Scale() float64 { return ev.scale }

// Chains returns the scan configuration (for pattern construction).
func (ev *Evaluator) Chains() *scan.Chains { return ev.chains }

// Device returns the IC under certification.
func (ev *Evaluator) Device() *Device { return ev.dev }

// Reading is one defender-visible measurement of a pattern.
type Reading struct {
	Observed float64 `json:"observed"` // chip power
	Nominal  float64 `json:"nominal"`  // golden-model nominal power of the predicted activity
	RPD      float64 `json:"rpd"`      // Eq. 1
}

// SetDriftReference enables drift compensation against a reference
// pattern: its reading is taken now as the baseline, and every
// DriftWindow delivered readings (from the device's acquisition policy)
// it is re-measured; the ratio of current to baseline is divided out of
// all subsequent observations. A tester's slow thermal ramp — which a
// per-die calibration taken once at the start cannot see — is thereby
// compensated at the cost of one extra reading per window. A
// non-positive or unstable baseline disables compensation.
func (ev *Evaluator) SetDriftReference(ref *scan.Pattern) {
	ev.driftRef = nil
	ev.driftScale = 1
	ev.driftWindow = ev.dev.Acquisition().DriftWindow
	if ev.driftWindow <= 0 || ref == nil {
		return
	}
	base := ev.dev.MeasureBatch([]*scan.Pattern{ref})[0]
	if math.IsNaN(base) || base <= 0 {
		return
	}
	ev.driftRef = ref
	ev.driftBase = base
	ev.sinceRef = 0
}

// maybeTrackDrift re-measures the drift reference once per window and
// updates the running drift scale. An unstable re-measurement keeps the
// previous estimate.
func (ev *Evaluator) maybeTrackDrift() {
	if ev.driftRef == nil || ev.sinceRef < ev.driftWindow {
		return
	}
	ev.sinceRef = 0
	cur := ev.dev.MeasureBatch([]*scan.Pattern{ev.driftRef})[0]
	if !math.IsNaN(cur) && cur > 0 {
		ev.driftScale = cur / ev.driftBase
	}
}

// MeasureBatch evaluates a set of patterns: chip observation plus
// golden-model nominal expectation for each. Any batch size is accepted
// (64-lane launches are chunked internally). Observations are corrected
// by the calibration scale and the running drift estimate; a reading the
// acquisition layer could not stabilize propagates as NaN.
func (ev *Evaluator) MeasureBatch(pats []*scan.Pattern) []Reading {
	out := make([]Reading, 0, len(pats))
	for start := 0; start < len(pats); start += 64 {
		end := start + 64
		if end > len(pats) {
			end = len(pats)
		}
		out = append(out, ev.measureChunk(pats[start:end], false)...)
	}
	return out
}

// measureChunk measures 1..64 patterns through one launch on each side,
// leaving the golden toggle encoding in ev.ids/ev.masks and, with pairs,
// its decomposition (see readLanes). The result is scratch, valid until
// the next measurement.
func (ev *Evaluator) measureChunk(pats []*scan.Pattern, pairs bool) []Reading {
	return ev.readLanes(len(pats), pairs,
		func() []float64 { return ev.dev.measureChunk(pats) },
		func() ([]int, []logic.Word) { return ev.toggled(pats) })
}

// overlapMin is the golden-half duration from which a read overlaps its
// halves: starting the golden half on another CPU takes tens of
// microseconds, which shorter halves do not earn back.
const overlapMin = 100 * time.Microsecond

// bothSides runs a read's physical half a on the caller and its golden
// half b: alongside it on a borrowed CPU when long is set (see
// parallel.Both), inline after it otherwise. The halves share no state,
// so every schedule yields the same bits; tests swap it to pin one
// schedule.
var bothSides = func(long bool, a, b func()) {
	if long {
		parallel.Both(a, b)
		return
	}
	a()
	b()
}

// sides runs the physical and golden halves of one read, Rebase, Advance
// or calibration chunk through bothSides. It times the golden half and
// overlaps the halves when the previous one took at least overlapMin.
func (ev *Evaluator) sides(phys, golden func()) {
	bothSides(ev.goldenTook >= overlapMin, phys, func() {
		start := time.Now()
		golden()
		ev.goldenTook = time.Since(start)
	})
}

// readLanes is the one reading assembler of every 1..64-lane
// measurement, launched (measureChunk) or swept (Sweep.MeasureLanes).
// Its two halves may overlap (sides). The physical half runs on the
// caller, in order: drift tracking, the device acquisition (acquire
// returns the n raw observations) and the drift window count. The golden
// half prices the nominals from golden's sparse toggle encoding of the
// same lanes and, with pairs, decomposes it for analyzeLanes. The
// calibrated, drift-corrected Readings are assembled after the join. The
// result is scratch, valid until the next measurement.
func (ev *Evaluator) readLanes(n int, pairs bool, acquire func() []float64, golden func() ([]int, []logic.Word)) []Reading {
	var observed []float64
	ev.sides(func() {
		ev.maybeTrackDrift()
		observed = acquire()
		ev.sinceRef += n
	}, func() {
		ids, masks := golden()
		ev.noms = ev.model.NominalLanesSparse(ids, masks, n, ev.noms)
		if pairs {
			ev.decompose(ids, masks, n)
		}
	})
	if cap(ev.out) < n {
		ev.out = make([]Reading, n)
	}
	out := ev.out[:n]
	for i := range out {
		obs := observed[i] / (ev.scale * ev.driftScale)
		out[i] = Reading{
			Observed: obs,
			Nominal:  ev.noms[i],
			RPD:      RPD(obs, ev.noms[i]),
		}
	}
	return out
}

// Measure evaluates a single pattern.
func (ev *Evaluator) Measure(p *scan.Pattern) Reading {
	return ev.MeasureBatch([]*scan.Pattern{p})[0]
}

// GoldenToggles returns the golden-model toggle set of a pattern — the
// defender's prediction of which gates switch.
func (ev *Evaluator) GoldenToggles(p *scan.Pattern) []int {
	ev.launch([]*scan.Pattern{p})
	return ev.eng.Toggles(0) // freshly allocated per call by the toggle extractor
}

// PairAnalysis is the superposition view of a pattern pair (§IV-C): the
// observed and nominal powers, the golden-model activity decomposition,
// and the resulting S-RPD.
type PairAnalysis struct {
	A *scan.Pattern `json:"a,omitempty"`
	B *scan.Pattern `json:"b,omitempty"`

	ObservedA float64 `json:"observed_a"`
	ObservedB float64 `json:"observed_b"`
	NominalA  float64 `json:"nominal_a"`
	NominalB  float64 `json:"nominal_b"`

	// Golden-model activity decomposition (gate counts) and the nominal
	// power of the unique parts — the Eq. 2 denominator.
	CommonCount    int     `json:"common_count"`
	AUniqueCount   int     `json:"a_unique_count"`
	BUniqueCount   int     `json:"b_unique_count"`
	NominalAUnique float64 `json:"nominal_a_unique"`
	NominalBUnique float64 `json:"nominal_b_unique"`

	// UniqueEnergySq is Σe² over both unique sets: the squared scale of
	// the intra-die variation the pair is exposed to (σ·√UniqueEnergySq
	// is the residual's standard deviation under the benign hypothesis).
	UniqueEnergySq float64 `json:"unique_energy_sq"`

	SRPD float64 `json:"srpd"`
}

// Residual returns the Eq. 2 numerator: the observed power difference not
// explained by the nominal model.
func (pa *PairAnalysis) Residual() float64 {
	return (pa.ObservedA - pa.ObservedB) - (pa.NominalA - pa.NominalB)
}

// Significance returns |Residual| / √(Σe² of the unique sets) — the number
// of per-unit-σ standard deviations the residual stands above benign
// intra-die variation. Unlike S-RPD it is scale-free in σ, so it ranks
// candidate pairs without assuming a variation magnitude.
func (pa *PairAnalysis) Significance() float64 {
	if pa.UniqueEnergySq <= 0 {
		return 0
	}
	r := pa.Residual()
	if r < 0 {
		r = -r
	}
	return r / math.Sqrt(pa.UniqueEnergySq)
}

// AnalyzePair applies superposition to a pattern pair.
func (ev *Evaluator) AnalyzePair(a, b *scan.Pattern) PairAnalysis {
	return ev.AnalyzePairs([][2]*scan.Pattern{{a, b}})[0]
}
