package core

import (
	"superpose/internal/logic"
	"superpose/internal/scan"
)

// Sweep is the evaluator-level single-flip sweep session behind the
// adaptive flow's candidate loop and the strategic pair search: one
// scan.Sweeper over the golden netlist (nominal prediction) and one over
// the physical device (observed power), sharing a flip list and 1 or 2
// interleaved base patterns. Per base change both sides are simulated
// once (Rebase) or advanced by the accepted flip (Advance); per chunk
// only the deviations of the flipped bits are propagated and priced
// sparsely — instead of a per-candidate clone, re-pack and full-netlist
// launch, with bit-identical Readings.
//
// With one base, chunk lane i is the base with flip i applied (the
// adaptive climb). With two bases A and B, lanes 2i and 2i+1 are A and B
// with flip i applied jointly — the 32 candidate pairs of a strategic
// round, in the lane order Evaluator.AnalyzePairs launches them.
//
// Besides whole chunks, a session measures arbitrary lane maps over its
// flip list (MeasureLanes, AnalyzeLanes): the adaptive climb's screen
// pairs, confirmation and accepted pair are the base and single flips of
// it, so they too are priced from flip deviations rather than launched.
//
// A Sweep is bound to its Evaluator's calibration, drift-compensation
// and acquisition state: MeasureChunk and MeasureLanes advance the
// device's reading stream exactly as Evaluator.MeasureBatch over the
// materialized candidate patterns would.
type Sweep struct {
	ev     *Evaluator
	cands  []CellRef
	golden *scan.Sweeper
	phys   *scan.Sweeper
	bases  []*scan.Pattern
	noms   []float64
	out    []Reading
	pairs  []PairAnalysis

	// The golden encoding of the last MeasureChunk or MeasureLanes,
	// which AnalyzeChunk and AnalyzeLanes decompose into pair activity.
	gids   []int
	gmasks []logic.Word
}

// NewSweep builds a sweep session over the candidate flips and the
// given number of interleaved bases (1 or 2). The flip list is shared by
// every base the session is rebased or advanced to.
func (ev *Evaluator) NewSweep(cands []CellRef, bases int) (*Sweep, error) {
	flips := make([]scan.Flip, len(cands))
	for i, cr := range cands {
		flips[i] = scan.Flip{Chain: cr.Chain, Index: cr.Index}
	}
	golden, err := scan.NewSweeper(ev.eng, ev.mode, flips, bases)
	if err != nil {
		return nil, err
	}
	phys, err := ev.dev.NewSweeper(flips, bases)
	if err != nil {
		golden.Close()
		return nil, err
	}
	return &Sweep{ev: ev, cands: cands, golden: golden, phys: phys}, nil
}

// Close returns both sides' sweepers' pooled buffers to the shared
// pools. The Sweep must not be used afterwards; Close is idempotent.
func (s *Sweep) Close() {
	s.golden.Close()
	s.phys.Close()
}

// Candidates returns the swept flip list as CellRefs (owned by the
// Sweep).
func (s *Sweep) Candidates() []CellRef { return s.cands }

// NumChunks returns the number of 64-lane chunks.
func (s *Sweep) NumChunks() int { return s.golden.NumChunks() }

// Rebase re-simulates both sides' base frames for new base patterns, as
// many as the session was built for. The patterns are captured by
// reference; callers must Rebase again after mutating one.
func (s *Sweep) Rebase(bases ...*scan.Pattern) error {
	if err := s.golden.Rebase(bases...); err != nil {
		return err
	}
	if err := s.phys.Rebase(bases...); err != nil {
		return err
	}
	s.bases = append(s.bases[:0], bases...)
	return nil
}

// Advance incrementally rebases both sides onto newBases, each of which
// must differ from the current base in its lane slot in exactly the
// accepted flip — the cheap per-step transition of the adaptive climb
// and the strategic search (only the flip's deviation is propagated
// instead of launching the full netlist twice).
func (s *Sweep) Advance(flipped CellRef, newBases ...*scan.Pattern) error {
	if len(newBases) != len(s.bases) {
		panic("core: Sweep.Advance with a different number of bases")
	}
	f := scan.Flip{Chain: flipped.Chain, Index: flipped.Index}
	if err := s.golden.Advance(f); err != nil {
		return err
	}
	if err := s.phys.Advance(f); err != nil {
		return err
	}
	s.bases = append(s.bases[:0], newBases...)
	return nil
}

// MeasureChunk evaluates chunk c's candidates — lane l is base l%bases
// with flip l/bases of the chunk applied — and returns their Readings,
// bit-identical to Evaluator.MeasureBatch over clones of the bases
// carrying those flips. The returned slice is owned by the Sweep and
// valid until the next MeasureChunk.
func (s *Sweep) MeasureChunk(c int) []Reading {
	if s.bases == nil {
		panic("core: Sweep.MeasureChunk before Rebase")
	}
	ev := s.ev
	ev.maybeTrackDrift()
	flips := s.phys.ChunkFlips(c)
	lanes := len(flips) * len(s.bases)
	ids, masks := s.phys.Run(c)
	observed := ev.dev.MeasureSweep(s.bases, flips, ids, masks)
	ev.sinceRef += lanes

	s.gids, s.gmasks = s.golden.Run(c)
	return s.readings(observed)
}

// MeasureLanes evaluates an arbitrary lane map over the session's flip
// list: lane l is base l%bases with candidate lanes[l] applied (the
// base itself when lanes[l] is negative), and pats[l] is that lane's
// materialized pattern. 1..64 lanes. The Readings are bit-identical to
// Evaluator.MeasureBatch(pats), and the device's reading stream — drift
// tracking, noise, tester faults and the stuck-latch guard, which keys
// lane l by the pointer pats[l] — advances exactly as it would; only the
// two full-netlist launches are replaced by flip-deviation propagation
// on both sides. The returned slice is owned by the Sweep and valid
// until the next measurement through it.
func (s *Sweep) MeasureLanes(pats []*scan.Pattern, lanes []int) []Reading {
	if s.bases == nil {
		panic("core: Sweep.MeasureLanes before Rebase")
	}
	if len(pats) != len(lanes) {
		panic("core: Sweep.MeasureLanes needs one pattern per lane")
	}
	// The order of Evaluator.measureChunk: drift tracking, the device
	// acquisition, the window count, then the golden nominals.
	ev := s.ev
	ev.maybeTrackDrift()
	ids, masks := s.phys.RunLanes(lanes)
	observed := ev.dev.measureToggled(pats, ids, masks)
	ev.sinceRef += len(lanes)

	s.gids, s.gmasks = s.golden.RunLanes(lanes)
	return s.readings(observed)
}

// readings prices the golden encoding in s.gids/s.gmasks over
// len(observed) lanes and pairs each lane's nominal with its calibrated,
// drift-corrected observation.
func (s *Sweep) readings(observed []float64) []Reading {
	ev := s.ev
	n := len(observed)
	s.noms = ev.model.NominalLanesSparse(s.gids, s.gmasks, n, s.noms)
	if cap(s.out) < n {
		s.out = make([]Reading, n)
	}
	out := s.out[:n]
	for i := range out {
		obs := observed[i] / (ev.scale * ev.driftScale)
		out[i] = Reading{
			Observed: obs,
			Nominal:  s.noms[i],
			RPD:      RPD(obs, s.noms[i]),
		}
	}
	return out
}

// AnalyzeChunk measures chunk c of a two-base session and returns the
// superposition analysis of its candidate pairs — pair i is (A⊕f, B⊕f)
// for the chunk's flip i — bit-identical to Evaluator.AnalyzePairs over
// the materialized pairs, except that A and B stay nil: the caller
// materializes only the pair it keeps. The returned slice is owned by
// the Sweep and valid until the next AnalyzeChunk.
func (s *Sweep) AnalyzeChunk(c int) []PairAnalysis {
	if len(s.bases) != 2 {
		panic("core: Sweep.AnalyzeChunk needs a sweep rebased onto a pair")
	}
	return s.analyze(s.MeasureChunk(c))
}

// AnalyzeLanes measures a lane map through MeasureLanes and returns the
// superposition analysis of its lane pairs — pair i is (pats[2i],
// pats[2i+1]) on lanes 2i and 2i+1 — bit-identical to
// Evaluator.AnalyzePairs over those patterns, A and B included. 2..64
// lanes, an even number. The returned slice is owned by the Sweep and
// valid until the next analysis through it.
func (s *Sweep) AnalyzeLanes(pats []*scan.Pattern, lanes []int) []PairAnalysis {
	if len(lanes)%2 != 0 {
		panic("core: Sweep.AnalyzeLanes over an odd number of lanes")
	}
	pairs := s.analyze(s.MeasureLanes(pats, lanes))
	for i := range pairs {
		pairs[i].A, pairs[i].B = pats[2*i], pats[2*i+1]
	}
	return pairs
}

// analyze decomposes the pairs of adjacent lanes of the last
// measurement from its golden encoding.
func (s *Sweep) analyze(readings []Reading) []PairAnalysis {
	n := len(readings) / 2
	if cap(s.pairs) < n {
		s.pairs = make([]PairAnalysis, n)
	}
	pairs := s.pairs[:n]
	s.ev.analyzeLanes(readings, s.gids, s.gmasks, pairs)
	return pairs
}
