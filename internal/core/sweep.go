package core

import (
	"superpose/internal/logic"
	"superpose/internal/scan"
)

// Sweep is the Evaluator's single-flip sweep session behind every
// reading of the adaptive climb and the strategic pair search: one
// scan.Sweeper over the golden netlist (nominal prediction) and one over
// the physical device (observed power), sharing one flip list — every
// stimulus bit, scan cells chain-major, then primary inputs — and one
// base pair, A on even lanes and B on odd lanes. Per base change both
// sides are simulated once (Rebase) or advanced by the accepted flip
// (Advance); per read only the deviations of the flipped bits are
// propagated and priced sparsely — instead of a per-candidate clone,
// re-pack and full-netlist launch, with bit-identical Readings.
//
// Every read is a lane map (MeasureLanes, AnalyzeLanes). The adaptive
// climb rebases onto (cur, cur) and reads its candidates 64 flips per
// map, its screen pairs, confirmation and accepted pair as the base and
// single flips of it. The strategic search rebases onto the pair (A, B)
// and reads 32 jointly flipped pairs per map, [i, i, j, j, …] — the lane
// order Evaluator.AnalyzePairs launches them in.
//
// A Sweep is bound to its Evaluator's calibration, drift-compensation
// and acquisition state: a read advances the device's reading stream
// exactly as Evaluator.MeasureBatch over the materialized lane patterns
// would.
type Sweep struct {
	ev     *Evaluator
	cands  []CellRef // the flip list lane maps index
	golden *scan.Sweeper
	phys   *scan.Sweeper
	a, b   *scan.Pattern // the base pair
	pairs  []PairAnalysis
}

// sweep returns the Evaluator's sweep session, building it on first use
// over every stimulus bit of the scan configuration.
func (ev *Evaluator) sweep() *Sweep {
	if ev.sw != nil {
		return ev.sw
	}
	var cands []CellRef
	for c := 0; c < ev.chains.NumChains(); c++ {
		for j := range ev.chains.Chain(c) {
			cands = append(cands, CellRef{c, j})
		}
	}
	for i := range ev.chains.Netlist().PIs {
		cands = append(cands, CellRef{PIChain, i})
	}
	flips := make([]scan.Flip, len(cands))
	for i, cr := range cands {
		flips[i] = scan.Flip{Chain: cr.Chain, Index: cr.Index}
	}
	// The flips come from the scan configuration itself, and the
	// device's must match it structurally; an error is an internal
	// invariant violation.
	golden, err := scan.NewSweeper(ev.eng, ev.mode, flips)
	if err != nil {
		panic("core: sweep construction: " + err.Error())
	}
	phys, err := ev.dev.NewSweeper(flips)
	if err != nil {
		panic("core: sweep construction: " + err.Error())
	}
	ev.sw = &Sweep{ev: ev, cands: cands, golden: golden, phys: phys}
	return ev.sw
}

// Close returns both sides' sweepers' pooled buffers to the shared
// pools. The Sweep must not be used afterwards; Close is idempotent.
func (s *Sweep) Close() {
	s.golden.Close()
	s.phys.Close()
}

// Rebase re-simulates both sides' base frames for a new base pair. The
// patterns are captured by reference; callers must Rebase again after
// mutating one.
func (s *Sweep) Rebase(a, b *scan.Pattern) error {
	return s.both(a, b,
		func() error { return s.phys.Rebase(a, b) },
		func() error { return s.golden.Rebase(a, b) })
}

// Advance incrementally rebases both sides onto the pair (a, b), which
// must differ from the current pair in exactly the flipped bit, in both
// patterns — the cheap per-step transition of the adaptive climb and the
// strategic search (only the flip's deviation is propagated instead of
// launching the full netlist twice).
func (s *Sweep) Advance(flipped CellRef, a, b *scan.Pattern) error {
	f := scan.Flip{Chain: flipped.Chain, Index: flipped.Index}
	return s.both(a, b,
		func() error { return s.phys.Advance(f) },
		func() error { return s.golden.Advance(f) })
}

// both runs a base transition's physical and golden sides as a read's
// halves (see Evaluator.sides) and, if both succeed, moves the base pair
// to (a, b). The golden side's error is reported first.
func (s *Sweep) both(a, b *scan.Pattern, phys, golden func() error) error {
	var perr, gerr error
	s.ev.sides(func() { perr = phys() }, func() { gerr = golden() })
	if gerr != nil {
		return gerr
	}
	if perr != nil {
		return perr
	}
	s.a, s.b = a, b
	return nil
}

// MeasureLanes reads a lane map over the session's flip list: lane l is
// base A (even l) or B (odd l) with candidate lanes[l] applied, or the
// base itself when lanes[l] is negative. 1..64 lanes. The Readings are
// bit-identical to Evaluator.MeasureBatch over the materialized lane
// patterns, and the device's reading stream — drift tracking, noise,
// tester faults and the stuck-latch guard — advances exactly as it
// would; only the two full-netlist launches are replaced by
// flip-deviation propagation on both sides.
//
// pats names the lanes for the stuck-latch guard. With pats, lane l is
// keyed by the pointer pats[l], as a batch measurement of that
// materialized pattern is. With nil pats — candidate lanes nobody
// materializes, every lanes[l] a flip — lane l is keyed by its base and
// its flip, so two lanes, or a lane and a batch pattern, always count as
// different stimuli, exactly as the materialized clones do. The returned
// slice is scratch, valid until the next measurement.
func (s *Sweep) MeasureLanes(pats []*scan.Pattern, lanes []int) []Reading {
	return s.measureLanes(pats, lanes, false)
}

// measureLanes is MeasureLanes, with pairs also decomposing the golden
// encoding for analyzeLanes (see readLanes).
func (s *Sweep) measureLanes(pats []*scan.Pattern, lanes []int, pairs bool) []Reading {
	if s.a == nil {
		panic("core: Sweep.MeasureLanes before Rebase")
	}
	if pats != nil && len(pats) != len(lanes) {
		panic("core: Sweep.MeasureLanes needs one pattern per lane")
	}
	key := patternKeys(pats)
	if pats == nil {
		key = func(l int) readingKey {
			base, cr := s.a, s.cands[lanes[l]]
			if l%2 == 1 {
				base = s.b
			}
			return readingKey{pat: base, chain: cr.Chain, index: cr.Index, sweep: true}
		}
	}
	return s.ev.readLanes(len(lanes), pairs,
		func() []float64 {
			ids, masks := s.phys.RunLanes(lanes)
			return s.ev.dev.measureToggled(ids, masks, len(lanes), key)
		},
		func() ([]int, []logic.Word) { return s.golden.RunLanes(lanes) })
}

// AnalyzeLanes reads a lane map through MeasureLanes and returns the
// superposition analysis of its lane pairs — pair i on lanes 2i and
// 2i+1 — bit-identical to Evaluator.AnalyzePairs over the materialized
// pairs. A and B are pats[2i] and pats[2i+1], or nil with nil pats: the
// caller materializes only the pair it keeps. 2..64 lanes, an even
// number. The returned slice is owned by the Sweep and valid until the
// next analysis through it.
func (s *Sweep) AnalyzeLanes(pats []*scan.Pattern, lanes []int) []PairAnalysis {
	if len(lanes)%2 != 0 {
		panic("core: Sweep.AnalyzeLanes over an odd number of lanes")
	}
	readings := s.measureLanes(pats, lanes, true)
	n := len(lanes) / 2
	if cap(s.pairs) < n {
		s.pairs = make([]PairAnalysis, n)
	}
	pairs := s.pairs[:n]
	s.ev.analyzeLanes(readings, pairs)
	if pats != nil {
		for i := range pairs {
			pairs[i].A, pairs[i].B = pats[2*i], pats[2*i+1]
		}
	}
	return pairs
}
