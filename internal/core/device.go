package core

import (
	"context"
	"math"

	"superpose/internal/failpoint"
	"superpose/internal/logic"
	"superpose/internal/netlist"
	"superpose/internal/power"
	"superpose/internal/scan"
	"superpose/internal/stats"
	"superpose/internal/tester"
)

// Device is the IC-under-certification sitting on the tester. Applying a
// batch of LOS patterns yields one power reading per pattern — nothing
// else about the physical die is observable to the detection flow.
//
// Internally the device simulates the *physical* netlist (which may carry
// a Trojan the defender's golden model lacks) and prices the launch
// activity on the chip's process-variation-afflicted gates. The ground
// truth accessors are clearly marked evaluation-only.
//
// Between the chip and the flow sits the measurement-acquisition layer:
// an optional tester fault model (internal/tester) perturbs the raw
// reading stream, and the configured AcquisitionPolicy decides how many
// samples to take per pattern, which to reject, and how to aggregate the
// survivors. A reading the policy cannot stabilize is delivered as NaN
// and the flow degrades gracefully around it.
type Device struct {
	physical *netlist.Netlist
	eng      *scan.Engine
	chip     *power.Chip
	mode     scan.Mode
	policy   AcquisitionPolicy
	faults   *tester.FaultModel
	acq      AcquisitionStats

	// Scratch: the sparse toggle encoding of the last batch launch and
	// the raw lane readings of the last tester pass.
	ids   []int
	masks []logic.Word
	raw   []float64

	// Run context (see SetContext): a cancelled context makes every
	// subsequent acquisition deliver NaN readings instead of partial
	// aggregates, with the cause held sticky in ctxErr until the next
	// SetContext.
	ctx    context.Context
	ctxErr error

	// Stuck-guard state: the last raw reading seen, the identity of the
	// stimulus it was taken from, and whether it was flagged as a latch
	// repeat. The run spans sweep and batch boundaries, as a stuck
	// window does.
	prevRaw     float64
	prevKey     readingKey
	prevSuspect bool
}

// readingKey identifies the stimulus behind one raw reading for the
// stuck-latch guard. Materialized patterns are identified by the pattern
// pointer (repeat applications of the same *Pattern are legitimate
// identical readings), whether their activity comes from a launch or
// from a sweep's lane map. Sweep candidate lanes nobody materializes
// are identified by their base pattern plus the flipped bit, so two
// such lanes — or such a lane and a batch pattern — always count as
// different stimuli, exactly as the materialized clones of the
// reference path do.
type readingKey struct {
	pat          *scan.Pattern
	chain, index int
	sweep        bool
}

// NewDevice mounts a chip built over the physical netlist. numChains must
// match the scan configuration the defender uses on the golden model; the
// scan cells of both netlists must agree (Trojan insertion preserves
// them).
func NewDevice(chip *power.Chip, numChains int, mode scan.Mode) *Device {
	physical := chip.Netlist()
	return newDevice(chip, scan.Configure(physical, numChains), mode)
}

// NewDeviceFromChains mounts a chip using an explicit scan configuration
// (typically one built on the golden netlist, e.g. by
// scan.ReorderByConnectivity, transplanted via its cell order — flip-flop
// IDs agree between golden and infected netlists).
func NewDeviceFromChains(chip *power.Chip, goldenChains *scan.Chains, mode scan.Mode) (*Device, error) {
	ch, err := scan.FromOrder(chip.Netlist(), goldenChains.Order())
	if err != nil {
		return nil, err
	}
	return newDevice(chip, ch, mode), nil
}

func newDevice(chip *power.Chip, ch *scan.Chains, mode scan.Mode) *Device {
	return &Device{
		physical: chip.Netlist(),
		eng:      scan.NewEngine(ch),
		chip:     chip,
		mode:     mode,
		policy:   NaiveAcquisition(),
		prevRaw:  math.NaN(), // never matches the first reading
	}
}

// Close returns the device's pooled simulation buffers to the shared
// pools. The Device must not be used afterwards; Close is idempotent.
func (d *Device) Close() {
	d.eng.Close()
}

// SetAcquisition replaces the measurement-acquisition policy.
func (d *Device) SetAcquisition(p AcquisitionPolicy) { d.policy = p }

// Acquisition returns the current acquisition policy.
func (d *Device) Acquisition() AcquisitionPolicy { return d.policy }

// SetContext binds the device's acquisition to a run context: once ctx
// is cancelled (or its deadline expires), every subsequent measurement —
// batch or sweep — delivers NaN readings rather than values aggregated
// from however many tester passes happened to finish, and Err reports
// the cause. The mid-acquisition check sits between tester passes, so a
// cancelled job never receives a reading built from a partial sample
// set. A nil ctx restores the unbound (background) behavior and clears
// the sticky error.
func (d *Device) SetContext(ctx context.Context) {
	d.ctx = ctx
	d.ctxErr = nil
}

// Err returns the context cancellation that aborted an acquisition on
// this device, or nil. The error is sticky until the next SetContext.
func (d *Device) Err() error { return d.ctxErr }

// cancelled checks the run context, recording and returning its error.
func (d *Device) cancelled() error {
	if d.ctxErr != nil {
		return d.ctxErr
	}
	if d.ctx == nil {
		return nil
	}
	d.ctxErr = d.ctx.Err()
	return d.ctxErr
}

// nanReadings is the all-lanes-unstable result of a cancelled
// acquisition: NaN per lane, counted as unstable, never partial data.
func (d *Device) nanReadings(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.NaN()
	}
	d.acq.Readings += uint64(n)
	d.acq.Unstable += uint64(n)
	return out
}

// SetFaultModel interposes a tester fault model on the raw reading
// stream (nil restores the ideal tester).
func (d *Device) SetFaultModel(fm *tester.FaultModel) { d.faults = fm }

// FaultModel returns the interposed tester fault model (nil when ideal).
func (d *Device) FaultModel() *tester.FaultModel { return d.faults }

// AcquisitionStats returns the cumulative acquisition counters.
func (d *Device) AcquisitionStats() AcquisitionStats { return d.acq }

// MeasureBatch applies a set of patterns and returns one power reading
// per pattern, acquired under the configured policy. Any batch size is
// accepted; the engine's 64-lane launches are chunked internally. A
// reading the policy could not stabilize is NaN, as is every reading
// taken after the run context (SetContext) was cancelled — check Err to
// distinguish cancellation from tester instability.
func (d *Device) MeasureBatch(pats []*scan.Pattern) []float64 {
	out := make([]float64, 0, len(pats))
	for start := 0; start < len(pats); start += 64 {
		end := start + 64
		if end > len(pats) {
			end = len(pats)
		}
		out = append(out, d.measureChunk(pats[start:end])...)
	}
	return out
}

// measureChunk acquires readings for 1..64 patterns (one launch).
func (d *Device) measureChunk(pats []*scan.Pattern) []float64 {
	if _, _, err := d.eng.Launch(pats, d.mode); err != nil {
		// MeasureBatch chunks into 1..64-pattern batches by construction.
		panic(err.Error())
	}
	d.ids, d.masks = d.eng.Toggled(d.ids, d.masks)
	return d.measureToggled(d.ids, d.masks, len(pats), patternKeys(pats))
}

// patternKeys keys lane i by the pattern pointer pats[i].
func patternKeys(pats []*scan.Pattern) func(lane int) readingKey {
	return func(i int) readingKey { return readingKey{pat: pats[i]} }
}

// measureToggled acquires readings for n (1..64) lanes whose physical
// toggle activity the caller already holds as a sparse (ids, masks)
// encoding — from a launch of materialized patterns, or from a
// Sweeper's lane map — under the acquisition policy: repeats, MAD
// outlier rejection, the stuck-latch guard, spread gate, retry budget
// and aggregation. key identifies lane i's stimulus for the stuck-latch
// guard. Launched and swept lanes alike funnel through here, so the two
// acquire readings with bit-identical policy behavior. A cancelled run
// context yields NaN lanes and a sticky Err, never partially-aggregated
// readings. The returned slice may share the device's scratch storage;
// it is valid until the next measurement.
func (d *Device) measureToggled(ids []int, masks []logic.Word, n int, key func(lane int) readingKey) []float64 {
	// price performs one tester pass: it prices the chip once, with
	// fresh measurement noise, into the device's scratch readings.
	price := func() []float64 {
		d.raw = d.chip.MeasureLanesSparse(ids, masks, n, d.raw)
		return d.raw
	}

	// A cancelled run context aborts the acquisition before the first
	// tester pass: the caller gets NaN readings and Err() the cause.
	if d.cancelled() != nil {
		return d.nanReadings(n)
	}

	// Chaos hook: an injected acquisition fault aborts exactly like a
	// cancellation — NaN readings, cause sticky in ctxErr — so the flow
	// above exercises its abort path without a real tester outage.
	if err := failpoint.Inject("core/acquire"); err != nil {
		d.ctxErr = err
		return d.nanReadings(n)
	}

	// Fast path: a noiseless chip behind an ideal tester returns the
	// identical value on every repeat, so one sweep is exact regardless
	// of the configured repeat count.
	if d.chip.NoiseSigma() == 0 && d.faults == nil {
		d.acq.Passes++
		d.acq.Raw += uint64(n)
		d.acq.Readings += uint64(n)
		return price()
	}

	p := d.policy.withDefaults()
	samples := make([][]float64, n)

	// One sweep reads every lane of the batch once, in lane order, so
	// the fault model's reading index advances identically for identical
	// batch sequences — the acquisition layer stays bit-reproducible.
	// record filters which lanes keep their sample (retry sweeps only
	// top up deficient lanes; the tester still reads all of them).
	sweep := func(record []bool) {
		d.acq.Passes++
		vals := price()
		for i, v := range vals {
			if d.faults != nil {
				v = d.faults.Apply(v)
			}
			d.acq.Raw++

			// A latched ADC repeats its value bit-for-bit, so a sample
			// that exactly equals the previous reading of a *different*
			// stimulus — or that extends such a run — is a latch repeat.
			// Same-stimulus repeats are legitimate (a noiseless chip
			// returns identical values), so they are exempt unless the
			// run is already suspect. The run state advances on every
			// reading, recorded or not, to stay aligned with the stream.
			suspect := false
			if p.StuckGuard {
				k := key(i)
				suspect = v == d.prevRaw && (k != d.prevKey || d.prevSuspect)
				d.prevRaw, d.prevKey, d.prevSuspect = v, k, suspect
			}

			if record != nil && !record[i] {
				continue
			}
			if math.IsNaN(v) {
				d.acq.Dropped++
				continue
			}
			if suspect {
				d.acq.Latched++
				continue
			}
			samples[i] = append(samples[i], v)
		}
	}
	for r := 0; r < p.Repeats; r++ {
		// Between passes is the one safe abort point: bailing here
		// delivers NaN for every lane rather than aggregates over
		// whichever passes completed — a cancelled job must never see
		// partial readings (they would differ from any uncancelled run).
		if d.cancelled() != nil {
			return d.nanReadings(n)
		}
		sweep(nil)
	}

	surviving := func(i int) []float64 {
		if p.MADThreshold > 0 {
			return stats.RejectOutliersMAD(samples[i], p.MADThreshold)
		}
		return samples[i]
	}
	// unsettled reports whether a reading still needs re-measurement:
	// too few surviving samples, or survivors that disagree beyond the
	// spread gate (a burst window can outlast every repeat of a small
	// batch, leaving samples that are individually plausible but
	// mutually inconsistent).
	unsettled := func(kept []float64) bool {
		if len(kept) < p.MinValid {
			return true
		}
		if p.SpreadGate <= 0 {
			return false
		}
		med, mad := stats.MAD(kept)
		return mad > p.SpreadGate*math.Abs(med)
	}
	for retry := 0; retry < p.RetryBudget; retry++ {
		if d.cancelled() != nil {
			return d.nanReadings(n)
		}
		deficient := make([]bool, n)
		any := false
		for i := range samples {
			if unsettled(surviving(i)) {
				deficient[i] = true
				any = true
			}
		}
		if !any {
			break
		}
		d.acq.Retries++
		sweep(deficient)
	}

	out := make([]float64, n)
	for i := range samples {
		kept := surviving(i)
		d.acq.Rejected += uint64(len(samples[i]) - len(kept))
		d.acq.Readings++
		if unsettled(kept) {
			// The retry budget ran out without stabilizing this reading.
			d.acq.Unstable++
			out[i] = math.NaN()
			continue
		}
		if p.Aggregation == AggMedian {
			out[i] = stats.Median(kept)
			continue
		}
		var sum float64
		for _, v := range kept {
			sum += v
		}
		out[i] = sum / float64(len(kept))
	}
	return out
}

// Measure applies a single pattern.
func (d *Device) Measure(p *scan.Pattern) float64 {
	return d.MeasureBatch([]*scan.Pattern{p})[0]
}

// NewSweeper builds a single-flip sweep engine over the device's scan
// configuration and physical netlist (see scan.NewSweeper), whose lane
// maps measureToggled acquires.
func (d *Device) NewSweeper(flips []scan.Flip) (*scan.Sweeper, error) {
	return scan.NewSweeper(d.eng, d.mode, flips)
}

// GroundTruthToggles returns the physical toggle set of a pattern
// (infected-netlist gate IDs). EVALUATION ONLY: a real tester cannot
// observe per-gate activity; the metrics harness uses this to compute TCA
// against the inserted Trojan's ground truth.
func (d *Device) GroundTruthToggles(p *scan.Pattern) []int {
	if _, _, err := d.eng.Launch([]*scan.Pattern{p}, d.mode); err != nil {
		panic(err.Error()) // single-pattern launch cannot be out of range
	}
	return d.eng.Toggles(0)
}

// PhysicalNetlist exposes the physical netlist. EVALUATION ONLY.
func (d *Device) PhysicalNetlist() *netlist.Netlist { return d.physical }
