package core

import (
	"context"
	"math"

	"superpose/internal/scan"
	"superpose/internal/sim"
)

// CellRef addresses one stimulus bit: a scan bit (Chain >= 0) or a primary
// input (Chain == PIChain, Index = PI position).
type CellRef struct {
	Chain int `json:"chain"`
	Index int `json:"index"`
}

// PIChain is the sentinel Chain value marking a primary-input bit.
const PIChain = -1

// IsPI reports whether the reference addresses a primary input.
func (r CellRef) IsPI() bool { return r.Chain == PIChain }

// applyFlip flips the referenced bit in place.
func applyFlip(p *scan.Pattern, r CellRef) {
	if r.IsPI() {
		p.PI[r.Index] = !p.PI[r.Index]
		return
	}
	p.Scan[r.Chain][r.Index] = !p.Scan[r.Chain][r.Index]
}

// transitionDelta returns the change in the pattern's LOS transition count
// if bit (chain, idx) were flipped.
func transitionDelta(p *scan.Pattern, chain, idx int) int {
	bits := p.Scan[chain]
	delta := 0
	flip := func(j int) { bits[j] = !bits[j] }
	count := func() int {
		c := 0
		lo, hi := idx-1, idx+1
		if lo < 0 {
			lo = 0
		}
		if hi > len(bits)-1 {
			hi = len(bits) - 1
		}
		for j := lo + 1; j <= hi; j++ {
			if bits[j] != bits[j-1] {
				c++
			}
		}
		return c
	}
	before := count()
	flip(idx)
	after := count()
	flip(idx) // restore
	delta = after - before
	return delta
}

// minGain is the RPD improvement a climb step must exceed to be
// accepted: any strict improvement.
const minGain = 1e-6

// AdaptiveOptions tunes the §IV-B flow.
type AdaptiveOptions struct {
	// MaxSteps bounds the number of accepted modifications (default
	// 4 × scan-bit count).
	MaxSteps int
	// DropThreshold is the |S-RPD| level between adjacent steps that
	// counts as the "suspiciously-large drop" of §IV-C and flags the pair
	// for superposition analysis. Default 0.02.
	DropThreshold float64
	// ScreenTop is how many of the largest-residual candidates receive a
	// full superposition analysis per step (default 6). The candidate with
	// the largest raw residual is not necessarily the best pair: a smaller
	// residual over a much smaller unique activity yields a stronger
	// S-RPD — the Fig. 1 ideal is a static sensitization difference whose
	// unique set is tiny.
	ScreenTop int
	// Engine is ignored.
	//
	// Deprecated: PPSFP is the only simulation backend, so there is
	// nothing left to select; the field remains so existing callers
	// keep compiling.
	Engine sim.EngineKind
	// Progress, when non-nil, receives a StageAdaptive event per accepted
	// climb step (Step = accepted steps so far, Total = MaxSteps). It
	// never alters the climb.
	Progress ProgressFunc
}

func (o AdaptiveOptions) withDefaults(p *scan.Pattern) AdaptiveOptions {
	if o.MaxSteps == 0 {
		bits := 0
		for _, c := range p.Scan {
			bits += len(c)
		}
		o.MaxSteps = 4*bits + 16
	}
	if o.DropThreshold == 0 {
		o.DropThreshold = 0.02
	}
	if o.ScreenTop == 0 {
		o.ScreenTop = 6
	}
	return o
}

// AdaptiveStep is one accepted state of the flow.
type AdaptiveStep struct {
	Pattern     *scan.Pattern `json:"pattern,omitempty"`
	Reading     Reading       `json:"reading"`
	Flipped     CellRef       `json:"flipped"` // the bit flipped to reach this step ({-1,-1} for the seed)
	Transitions int           `json:"transitions"`
}

// PairCandidate is a pattern pair flagged by the drop screen: the two
// patterns differ in exactly the Critical stimulus bit, and their
// superposition signal exceeded the drop threshold.
type PairCandidate struct {
	A        *scan.Pattern `json:"a,omitempty"`
	B        *scan.Pattern `json:"b,omitempty"`
	Critical CellRef       `json:"critical"`
	SRPD     float64       `json:"srpd"`
	// Significance is the residual in units of √(Σe²) over the unique
	// sets (see PairAnalysis.Significance) — the selection key. Ranking by
	// raw |S-RPD| would favor tiny-denominator pairs whose benign
	// variation happens to be extreme; significance normalizes by the
	// variation exposure instead.
	Significance float64 `json:"significance"`
}

// AdaptiveResult is the full trajectory of one adaptive run.
type AdaptiveResult struct {
	Steps []AdaptiveStep `json:"steps"`
	// Best indexes the step with the highest RPD — the "final test pattern
	// achieved by the adaptive flow alone" of Table I.
	Best int `json:"best"`
	// Pairs lists drop-flagged adjacent pairs, in discovery order.
	Pairs []PairCandidate `json:"pairs,omitempty"`
}

// BestPattern returns the max-RPD pattern of the trajectory.
func (r *AdaptiveResult) BestPattern() *scan.Pattern { return r.Steps[r.Best].Pattern }

// Adaptive runs the §IV-B flow from a seed pattern as a greedy hill climb
// on the suspicious signal: at every step it measures every single-bit
// scan flip of the current pattern and accepts the one with the highest
// RPD, stopping at a local maximum. Because RPD normalizes the unexplained
// power by the nominal activity, the climb both quiets ancillary activity
// (smaller PN) and sensitizes whatever the golden model cannot explain —
// "pursuing those potential Trojan-related effects" (§IV-B).
//
// Alongside the climb runs the §IV-C drop screen: every candidate whose
// reading falls hardest below the current pattern's expectation is
// analyzed through superposition, and pairs whose |S-RPD| exceeds the
// drop threshold are flagged for the focused §IV-D stage.
func (ev *Evaluator) Adaptive(seed *scan.Pattern, opt AdaptiveOptions) *AdaptiveResult {
	res, _ := ev.AdaptiveContext(context.Background(), seed, opt)
	return res
}

// AdaptiveContext is Adaptive under a run context: the climb checks ctx
// between candidate chunks and between steps, and a cancellation (or
// deadline expiry) aborts it mid-climb, returning the trajectory
// accepted so far together with ctx's error. The device's acquisition is
// expected to share the same context (see DetectContext), so an abort
// never steers the search with partially-acquired readings. With a
// background context the climb is bit-identical to Adaptive.
func (ev *Evaluator) AdaptiveContext(ctx context.Context, seed *scan.Pattern, opt AdaptiveOptions) (*AdaptiveResult, error) {
	opt = opt.withDefaults(seed)
	cur := seed.Clone()
	res := &AdaptiveResult{
		Steps: []AdaptiveStep{{
			Pattern:     cur,
			Flipped:     CellRef{-1, -1},
			Transitions: cur.TransitionCount(),
		}},
	}

	// The candidate set — every single-bit stimulus flip — is invariant
	// across steps: scan bits change launch activity, primary-input bits
	// change sensitization at zero launch cost (PIs hold static across
	// the LOS launch). It is the flip list of the Evaluator's sweep
	// session, which runs every reading of the climb: the base is
	// simulated once per climb and only flip deviations are propagated —
	// for the candidate chunks and for the screen pairs, confirmation and
	// accepted pair alike. Only the lanes a step reads outside the chunks
	// are materialized: the result keeps some of them, and their pointers
	// key the device's stuck-latch guard exactly as a batch measurement
	// of them would.
	sweep := ev.sweep()
	cands := sweep.cands
	if len(cands) == 0 {
		res.Steps[0].Reading = ev.Measure(cur)
		return res, ctx.Err()
	}
	residuals := make([]float64, len(cands))

	// The full two-sided base launch happens once per climb, onto the
	// pair (cur, cur): accepted steps advance the session incrementally
	// (one flip-deviation propagation), and a vetoed confirmation leaves
	// cur — and the session — untouched.
	if err := sweep.Rebase(cur, cur); err != nil {
		panic("core: Adaptive sweep rebase: " + err.Error())
	}
	res.Steps[0].Reading = sweep.MeasureLanes([]*scan.Pattern{cur}, []int{-1})[0]
	// patternAt materializes candidate idx as a standalone pattern.
	patternAt := func(idx int) *scan.Pattern {
		q := cur.Clone()
		applyFlip(q, cands[idx])
		return q
	}
	var pats []*scan.Pattern // the screen's lane patterns and flips
	var lanes []int
	chunk := make([]int, 0, 64) // a candidate chunk's lane map
	for step := 0; step < opt.MaxSteps; step++ {
		if ctx.Err() != nil {
			break
		}
		// Measure all candidates, 64 per chunk — lane i of a chunk is
		// candidate start+i. Two results matter: the candidate with the
		// strongest suspicious signal (the greedy step) and the candidate
		// whose reading drops hardest below the current pattern's
		// expectation — the §IV-C indicator that the flip just
		// deactivated something the golden model does not know about.
		curReading := res.Steps[len(res.Steps)-1].Reading
		bestIdx, bestRPD := -1, 0.0
		for start := 0; start < len(cands); start += 64 {
			if ctx.Err() != nil {
				break
			}
			chunk = chunk[:0]
			for idx := start; idx < min(start+64, len(cands)); idx++ {
				chunk = append(chunk, idx)
			}
			for i, rd := range sweep.MeasureLanes(nil, chunk) {
				// Readings the acquisition layer could not stabilize
				// (NaN) are excluded from the climb: a phantom reading
				// must never steer the search.
				if !math.IsNaN(rd.RPD) && (bestIdx < 0 || rd.RPD > bestRPD) {
					bestIdx, bestRPD = start+i, rd.RPD
				}
				// Superposition numerator of (cur, candidate): observed
				// power change not explained by the nominal model.
				residuals[start+i] = abs((curReading.Observed - rd.Observed) -
					(curReading.Nominal - rd.Nominal))
			}
		}

		// A cancellation observed during the candidate loop aborts the
		// climb here, before the screen or the greedy step can act on a
		// partially-measured round.
		if ctx.Err() != nil {
			break
		}

		// Focused superposition analysis of the top residual droppers
		// (NaN residuals — unstabilized readings — are never selected),
		// 32 pairs [cur, cur⊕f] per lane run.
		top := topIndices(residuals, opt.ScreenTop)
		for start := 0; start < len(top); start += 32 {
			group := top[start:min(start+32, len(top))]
			pats, lanes = pats[:0], lanes[:0]
			for _, idx := range group {
				pats = append(pats, cur, patternAt(idx))
				lanes = append(lanes, -1, idx)
			}
			for i, pa := range sweep.AnalyzeLanes(pats, lanes) {
				if abs(pa.SRPD) > opt.DropThreshold {
					res.Pairs = append(res.Pairs, PairCandidate{
						A: cur, B: pa.B, Critical: cands[group[i]],
						SRPD: pa.SRPD, Significance: pa.Significance(),
					})
				}
			}
		}

		// Local maximum: stop when no flip improves the signal. bestIdx
		// stays -1 when every reading of the round was unstable — treat
		// that as no improvement rather than indexing a phantom winner.
		if bestIdx < 0 || bestRPD <= curReading.RPD+minGain {
			break
		}

		chosen := cands[bestIdx]
		next := patternAt(bestIdx)

		// The batch reading proposed the step; the confirmation reading
		// has the final word. On an ideal tester the two are identical
		// and the veto can never fire; under tester faults a single
		// inflated batch lane would otherwise steer the entire search
		// toward a phantom maximum. A vetoed (or unstable) confirmation
		// rejects the step and re-runs the round on fresh measurements.
		confirm := sweep.MeasureLanes([]*scan.Pattern{next}, []int{bestIdx})[0]
		if math.IsNaN(confirm.RPD) || confirm.RPD <= curReading.RPD+minGain {
			continue
		}
		res.Steps = append(res.Steps, AdaptiveStep{
			Pattern:     next,
			Reading:     confirm,
			Flipped:     chosen,
			Transitions: next.TransitionCount(),
		})
		opt.Progress.emit(StageAdaptive, len(res.Steps)-1, opt.MaxSteps, "climb step accepted")

		// Superposition screen of the accepted adjacent pair as well.
		pa := sweep.AnalyzeLanes([]*scan.Pattern{cur, next}, []int{-1, bestIdx})[0]
		if mag := abs(pa.SRPD); mag > opt.DropThreshold {
			res.Pairs = append(res.Pairs, PairCandidate{
				A: cur, B: next, Critical: chosen,
				SRPD: pa.SRPD, Significance: pa.Significance(),
			})
		}
		if err := sweep.Advance(chosen, next, next); err != nil {
			panic("core: Adaptive sweep advance: " + err.Error())
		}
		cur = next
	}

	for i, s := range res.Steps {
		if s.Reading.RPD > res.Steps[res.Best].Reading.RPD {
			res.Best = i
		}
	}
	return res, ctx.Err()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// topIndices returns the indices of the k largest values in descending
// value order (ties broken by ascending index). NaN values — residuals
// of readings the acquisition layer could not stabilize — are never
// selected, so the result may hold fewer than k entries. One pass with
// a k-sized insertion buffer: k is small (the ScreenTop handful), so
// the shift-down beats heap bookkeeping and allocates once.
func topIndices(vals []float64, k int) []int {
	if k > len(vals) {
		k = len(vals)
	}
	if k <= 0 {
		return nil
	}
	out := make([]int, 0, k)
	for i, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		// Find the insertion point: after every kept value >= v, so
		// equal values stay in ascending-index order.
		pos := len(out)
		for pos > 0 && v > vals[out[pos-1]] {
			pos--
		}
		if pos == k {
			continue
		}
		if len(out) < k {
			out = append(out, 0)
		}
		copy(out[pos+1:], out[pos:])
		out[pos] = i
	}
	return out
}
