package core

import "superpose/internal/scan"

// Sweep is the evaluator-level single-flip sweep session behind the
// adaptive flow's candidate loop: one scan.Sweeper over the golden
// netlist (nominal prediction) and one over the physical device
// (observed power), sharing a flip list. Per step the base pattern is
// simulated once on each side (Rebase); per chunk only the deviations
// of the 64 flipped bits are propagated and priced sparsely — instead
// of a per-candidate clone, re-pack and full-netlist launch, with
// bit-identical Readings.
//
// A Sweep is bound to its Evaluator's calibration, drift-compensation
// and acquisition state: MeasureChunk advances the device's reading
// stream exactly as Evaluator.MeasureBatch over the materialized
// candidate patterns would.
type Sweep struct {
	ev     *Evaluator
	cands  []CellRef
	golden *scan.Sweeper
	phys   *scan.Sweeper
	base   *scan.Pattern
	noms   []float64
	out    []Reading
}

// NewSweep builds a sweep session over the candidate flips (shared by
// every step of an adaptive run — the stimulus shape is invariant).
func (ev *Evaluator) NewSweep(cands []CellRef) (*Sweep, error) {
	flips := make([]scan.Flip, len(cands))
	for i, cr := range cands {
		flips[i] = scan.Flip{Chain: cr.Chain, Index: cr.Index}
	}
	golden, err := scan.NewSweeper(ev.chains, ev.mode, flips)
	if err != nil {
		return nil, err
	}
	phys, err := ev.dev.NewSweeper(flips)
	if err != nil {
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

// NumChunks returns the number of 64-candidate chunks.
func (s *Sweep) NumChunks() int { return s.golden.NumChunks() }

// Rebase re-simulates both sides' base frames for a new base pattern.
// The pattern is captured by reference; callers must Rebase again after
// mutating it.
func (s *Sweep) Rebase(base *scan.Pattern) error {
	if err := s.golden.Rebase(base); err != nil {
		return err
	}
	if err := s.phys.Rebase(base); err != nil {
		return err
	}
	s.base = base
	return nil
}

// Advance incrementally rebases both sides onto newBase, which must
// differ from the current base in exactly the accepted flip — the cheap
// per-step transition of the adaptive climb (only the flip's deviation
// is propagated instead of launching the full netlist twice).
func (s *Sweep) Advance(flipped CellRef, newBase *scan.Pattern) error {
	f := scan.Flip{Chain: flipped.Chain, Index: flipped.Index}
	if err := s.golden.Advance(f); err != nil {
		return err
	}
	if err := s.phys.Advance(f); err != nil {
		return err
	}
	s.base = newBase
	return nil
}

// MeasureChunk evaluates chunk c's candidates — base with one bit
// flipped per lane — and returns their Readings, bit-identical to
// Evaluator.MeasureBatch over clones of the base carrying those flips.
// The returned slice is owned by the Sweep and valid until the next
// MeasureChunk.
func (s *Sweep) MeasureChunk(c int) []Reading {
	if s.base == nil {
		panic("core: Sweep.MeasureChunk before Rebase")
	}
	ev := s.ev
	ev.maybeTrackDrift()
	flips := s.phys.ChunkFlips(c)
	ids, masks := s.phys.Run(c)
	observed := ev.dev.MeasureSweep(s.base, flips, ids, masks)
	ev.sinceRef += len(flips)

	gids, gmasks := s.golden.Run(c)
	s.noms = ev.model.NominalLanesSparse(gids, gmasks, len(flips), s.noms)

	if cap(s.out) < len(flips) {
		s.out = make([]Reading, len(flips))
	}
	out := s.out[:len(flips)]
	for i := range flips {
		obs := observed[i] / (ev.scale * ev.driftScale)
		out[i] = Reading{
			Observed: obs,
			Nominal:  s.noms[i],
			RPD:      RPD(obs, s.noms[i]),
		}
	}
	return out
}
