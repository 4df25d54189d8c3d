package scan

import (
	"fmt"
	"math/bits"

	"superpose/internal/logic"
	"superpose/internal/scratch"
	"superpose/internal/sim"
)

// Flip addresses one stimulus bit of a pattern: a scan bit (Chain >= 0)
// or a primary input (Chain == PIFlip, Index = PI position).
type Flip struct {
	Chain, Index int
}

// PIFlip is the sentinel Chain value marking a primary-input flip.
const PIFlip = -1

// IsPI reports whether the flip addresses a primary input.
func (f Flip) IsPI() bool { return f.Chain == PIFlip }

// srcFlip is one precomputed source perturbation: XOR bit into the word
// of source gate `gate` to apply that lane's flip.
type srcFlip struct {
	gate int
	bit  logic.Word
}

// capture is one LOC frame-2 re-capture: scannable flip-flop ff takes
// its frame-2 source from the frame-1 value of its D pin.
type capture struct {
	ff, dpin int
}

// chunkPlan is the precomputation of one sweep chunk (up to 64/bases
// flips, each seeding one lane per base). The per-lane source
// perturbations are computed at construction — O(lanes), no netlist
// walk — and the LOC re-capture list (one frame-1 cone walk) is derived
// on the chunk's first use. Chunks propagate word deviations directly
// (sim.DeltaProp), so a sweep over a million-gate netlist never
// re-evaluates a structural cone. Because a search sweeps the same
// stimulus bits every step, the derived list is reused for the whole
// run.
type chunkPlan struct {
	flips    []Flip
	f1Srcs   []srcFlip // frame-1 source bits to XOR, per lane
	f2Srcs   []srcFlip // frame-2 source bits to XOR (LOS scan cells, PIs)
	laneMask logic.Word

	// Lazily derived by ensureCaptures (trivial for LOS).
	capsDone bool
	captures []capture // LOC only: FFs re-captured from the frame-1 cone
}

// Sweeper is the single-flip sweep engine of the adaptive flow (§IV-B)
// and the strategic pair search (§IV-D): it evaluates every pattern that
// differs from a base pattern in exactly one stimulus bit, without
// materializing those patterns. A sweep runs over 1 or 2 bases. The
// bases' frames are simulated once per Rebase, on lanes 0..bases-1, and
// interleaved across all 64 lanes: lane l carries base l%bases. A chunk
// holds 64/bases flips, and flip i of a chunk seeds lanes
// bases·i .. bases·i+bases-1 — with two bases (A, B) the chunk's lanes
// are [A⊕f0, B⊕f0, A⊕f1, B⊕f1, …], the 32 jointly flipped pairs of the
// strategic climb. Each chunk seeds its flips as per-lane source
// deviations and propagates only the words that actually change
// (sim.DeltaProp) — the LOS transparency rule (§IV-A) guarantees the
// perturbation is local, and the full-scan structure keeps it shallow
// (it stops at flip-flop D pins).
//
// The output of a chunk is a sparse (ids, masks) toggle encoding whose
// pricing through power.NominalLanesSparse / power.MeasureLanesSparse is
// bit-identical to launching the materialized clones through
// Engine.Launch and pricing Engine.Toggled: gates the deviation never
// reaches keep their base toggle word (the interleaved bases' toggle
// states), gates it reaches carry their exact lane words, and both
// encodings list gates in ascending ID order.
//
// A Sweeper launches its bases through the caller's Engine, whose
// hidden NoScan state they see, and must not outlive it. It owns its
// other buffers and is not safe for concurrent use.
type Sweeper struct {
	ch    *Chains
	mode  Mode
	eng   *Engine // borrowed: base-frame simulation
	bases int     // base patterns interleaved across the lanes (1 or 2)
	plans []chunkPlan

	// Per-base state (valid after Rebase): the interleaved base frame
	// values, the ascending gate IDs any base toggles, and — parallel to
	// baseToggles — their toggle words, which unreached gates emit.
	f1b, f2b    []logic.Word
	baseToggles []int
	baseWords   []logic.Word
	based       bool

	// Sparse output buffers, valid until the next Run.
	ids   []int
	masks []logic.Word

	// Delta-propagation state: one propagator per frame, lazily built;
	// gen is the base generation (bumped by Rebase and Advance) and
	// dpGen tracks which generation the propagators' base words were
	// gathered from. div is the per-Run scratch of diverged gate IDs.
	gen    uint64
	dpGen  uint64
	dp1    *sim.DeltaProp
	dp2    *sim.DeltaProp
	div    []int32
	divmap []uint64

	roots []int // scratch for lazy cone-walk root lists
}

// NewSweeper builds a sweep engine over eng's scan configuration for the
// given flip list and number of interleaved base patterns (1 or 2), in
// order: flip i lands in chunk i/(64/bases). Rebase launches the bases
// through eng, so the sweep sees eng's hidden NoScan state; eng may
// launch other patterns between sweeper calls. Setup is O(flips) plus
// pooled per-net buffers — the LOC re-capture list of each chunk is
// derived lazily on its first use (see chunkPlan) — so per-lot
// construction cost stays flat as netlists grow.
func NewSweeper(eng *Engine, mode Mode, flips []Flip, bases int) (*Sweeper, error) {
	if bases != 1 && bases != 2 {
		return nil, fmt.Errorf("scan: sweep over %d bases (want 1 or 2)", bases)
	}
	ch := eng.Chains()
	n := ch.Netlist()
	for _, f := range flips {
		if f.IsPI() {
			if f.Index < 0 || f.Index >= len(n.PIs) {
				return nil, fmt.Errorf("scan: sweep flip PI %d out of range (%d PIs)", f.Index, len(n.PIs))
			}
			continue
		}
		if f.Chain < 0 || f.Chain >= ch.NumChains() {
			return nil, fmt.Errorf("scan: sweep flip chain %d out of range (%d chains)", f.Chain, ch.NumChains())
		}
		if f.Index < 0 || f.Index >= len(ch.Chain(f.Chain)) {
			return nil, fmt.Errorf("scan: sweep flip cell %d.%d out of range (chain length %d)",
				f.Chain, f.Index, len(ch.Chain(f.Chain)))
		}
	}
	s := &Sweeper{
		ch:    ch,
		mode:  mode,
		eng:   eng,
		bases: bases,
		f1b:   scratch.Words(n.NumGates()),
		f2b:   scratch.Words(n.NumGates()),
		gen:   1,
	}
	per := 64 / bases
	for start := 0; start < len(flips); start += per {
		end := min(start+per, len(flips))
		s.plans = append(s.plans, buildPlanSources(ch, mode, flips[start:end], bases))
	}
	return s, nil
}

// Close returns the sweeper's pooled buffers (per-net working arrays,
// delta propagators) to the shared pools; the borrowed Engine stays
// open. The Sweeper must not be used afterwards; Close is idempotent.
func (s *Sweeper) Close() {
	if s.f1b == nil {
		return
	}
	scratch.PutWords(s.f1b)
	scratch.PutWords(s.f2b)
	s.f1b, s.f2b = nil, nil
	if s.divmap != nil {
		scratch.PutUint64s(s.divmap)
		s.divmap = nil
	}
	if s.dp1 != nil {
		s.dp1.Release()
		s.dp2.Release()
		s.dp1, s.dp2 = nil, nil
	}
	s.based = false
}

// flipBits returns the lane bits flip i of a chunk seeds: one lane per
// base, lanes bases·i .. bases·i+bases-1.
func flipBits(i, bases int) logic.Word {
	return (logic.Word(1)<<uint(bases) - 1) << uint(i*bases)
}

// buildPlanSources computes the eager part of one chunk: the per-lane
// source perturbations and the lane mask. No netlist walk happens here.
func buildPlanSources(ch *Chains, mode Mode, flips []Flip, bases int) chunkPlan {
	n := ch.Netlist()
	p := chunkPlan{
		flips:    append([]Flip(nil), flips...),
		laneMask: ^logic.Word(0),
		capsDone: mode == LOS, // LOS has no re-captures, nothing to derive
	}
	if lanes := len(flips) * bases; lanes < 64 {
		p.laneMask = logic.Word(1)<<uint(lanes) - 1
	}

	for i, f := range flips {
		bit := flipBits(i, bases)
		if f.IsPI() {
			// PIs hold across both frames under either mode.
			id := n.PIs[f.Index]
			p.f1Srcs = append(p.f1Srcs, srcFlip{id, bit})
			p.f2Srcs = append(p.f2Srcs, srcFlip{id, bit})
			continue
		}
		chain := ch.Chain(f.Chain)
		switch mode {
		case LOS:
			// Frame 1 holds the one-shift-earlier state: bit j sources
			// cell j+1, and — pinned — cell 0 sources itself. Frame 2 is
			// the fully loaded state: bit j sources cell j.
			if f.Index == 0 {
				p.f1Srcs = append(p.f1Srcs, srcFlip{chain[0], bit})
			}
			if f.Index+1 < len(chain) {
				p.f1Srcs = append(p.f1Srcs, srcFlip{chain[f.Index+1], bit})
			}
			p.f2Srcs = append(p.f2Srcs, srcFlip{chain[f.Index], bit})
		case LOC:
			// Frame 1 is the loaded state; frame 2 re-captures from the
			// frame-1 responses, handled through p.captures (derived
			// lazily by ensureCaptures).
			p.f1Srcs = append(p.f1Srcs, srcFlip{chain[f.Index], bit})
		}
	}
	return p
}

// ensureCaptures derives the chunk's LOC re-capture list on first use —
// one frame-1 cone walk through a pooled walker: every scannable
// flip-flop whose D pin the cone touches re-captures a perturbed value.
func (s *Sweeper) ensureCaptures(p *chunkPlan) {
	if p.capsDone {
		return
	}
	n := s.ch.Netlist()
	w := n.AcquireConeWalker()
	s.roots = s.roots[:0]
	for _, sf := range p.f1Srcs {
		s.roots = append(s.roots, sf.gate)
	}
	w.Walk(s.roots)
	for _, ff := range n.FFs {
		if n.IsNoScan(ff) {
			continue
		}
		dpin := n.Gates[ff].Fanin[0]
		if w.Reached(dpin) {
			p.captures = append(p.captures, capture{ff, dpin})
		}
	}
	p.capsDone = true
	w.Release()
}

// Chains returns the sweep's scan configuration.
func (s *Sweeper) Chains() *Chains { return s.ch }

// Mode returns the launch mode the sweep simulates.
func (s *Sweeper) Mode() Mode { return s.mode }

// NumChunks returns the number of 64-lane chunks.
func (s *Sweeper) NumChunks() int { return len(s.plans) }

// ChunkFlips returns the flips of chunk c in lane order — flip i seeds
// lanes bases·i .. bases·i+bases-1 (owned by the Sweeper; do not
// modify).
func (s *Sweeper) ChunkFlips(c int) []Flip { return s.plans[c].flips }

// Rebase simulates the two frames of new base patterns — exactly as
// many as the sweep was built for — and resets the working lane words to
// their interleaved values: lane l carries base l%bases. Must be called
// before Run and after every change to a base pattern.
func (s *Sweeper) Rebase(bases ...*Pattern) error {
	if len(bases) != s.bases {
		return fmt.Errorf("scan: Sweeper.Rebase with %d bases, sweep built for %d", len(bases), s.bases)
	}
	f1, f2, err := s.eng.Launch(bases, s.mode)
	if err != nil {
		return err
	}
	// Multiplying a word's low `bases` bits by rep copies them into every
	// block of `bases` lanes (the blocks never overlap, so nothing
	// carries): 1 base broadcasts lane 0, 2 bases interleave lanes 0/1.
	low := logic.Word(1)<<uint(s.bases) - 1
	rep := ^logic.Word(0) / low
	for id := range f1 {
		s.f1b[id], s.f2b[id] = (f1[id]&low)*rep, (f2[id]&low)*rep
	}
	s.collectBaseToggles()
	s.based = true
	s.gen++ // cached delta-propagation bases are now stale
	return nil
}

// collectBaseToggles rebuilds the ascending list of gates any base
// toggles and their toggle words.
func (s *Sweeper) collectBaseToggles() {
	s.baseToggles, s.baseWords = sim.AppendToggled(s.f1b, s.f2b, s.baseToggles[:0], s.baseWords[:0])
}

// Advance incrementally rebases the sweeper onto the patterns that
// differ from the current bases in exactly the given flip — the accepted
// step of the adaptive climb, or the accepted joint flip of both
// patterns of a strategic pair. Instead of a full two-frame launch, it
// seeds both frames' propagators with the flip's source deviations on
// every lane (every base takes the flip, so each deviation word is
// all-ones), commits exactly the diverged gates into the interleaved
// base, and rebuilds the base toggle list. Two-valued logic is exact and
// gates the deviation never reaches keep their old words, so the
// resulting state is identical to a Rebase on the materialized patterns.
// The flip must be one the sweeper was built for.
func (s *Sweeper) Advance(f Flip) error {
	if !s.based {
		return fmt.Errorf("scan: Sweeper.Advance before Rebase")
	}
	var p *chunkPlan
	slot := -1
	for i := range s.plans {
		for k, pf := range s.plans[i].flips {
			if pf == f {
				p, slot = &s.plans[i], k
				break
			}
		}
		if p != nil {
			break
		}
	}
	if p == nil {
		return fmt.Errorf("scan: Sweeper.Advance: flip %v not in sweep", f)
	}
	s.propagate(p, flipBits(slot, s.bases))

	// Commit: diverged gates take their propagated words; everything
	// else never left the old base.
	s.div = s.dp1.AppendDiverged(s.div[:0])
	for _, id := range s.div {
		s.f1b[id] = s.dp1.Value(int(id))
	}
	s.div = s.dp2.AppendDiverged(s.div[:0])
	for _, id := range s.div {
		s.f2b[id] = s.dp2.Value(int(id))
	}
	s.collectBaseToggles()
	s.gen++ // the committed base invalidates the propagators' gathered words
	return nil
}

// ensureDeltaProps lazily builds the two per-frame delta propagators
// and refreshes their base words after a Rebase or Advance.
func (s *Sweeper) ensureDeltaProps() {
	if s.dp1 == nil {
		n := s.ch.Netlist()
		s.dp1 = sim.NewDeltaProp(n)
		s.dp2 = sim.NewDeltaProp(n)
		s.dpGen = 0 // force the first base gather
	}
	if s.dpGen != s.gen {
		s.dp1.SetBase(s.f1b)
		s.dp2.SetBase(s.f2b)
		s.dpGen = s.gen
	}
}

// propagate runs both frames' delta propagators over chunk p's source
// deviations from the current bases. With only == 0 every lane takes
// its own flip (a Run); otherwise only the flip seeding lanes `only` is
// applied, on every lane (an Advance: every base takes the flip).
func (s *Sweeper) propagate(p *chunkPlan, only logic.Word) {
	s.ensureCaptures(p)
	s.ensureDeltaProps()
	s.dp1.Begin()
	seedFlips(s.dp1, p.f1Srcs, only)
	s.dp1.Run()
	s.dp2.Begin()
	seedFlips(s.dp2, p.f2Srcs, only)
	for _, cp := range p.captures {
		// LOC re-capture: the cell's frame-2 deviation is however far its
		// D pin's frame-1 value moved from the base capture (zero when the
		// frame-1 deviation never reached the pin — the base frames of a
		// real launch already satisfy f2b[ff] == frame1(dpin)).
		s.dp2.SeedXOR(cp.ff, s.dp1.Value(cp.dpin)^s.f2b[cp.ff])
	}
	s.dp2.Run()
}

// seedFlips seeds dp with a chunk's source XORs: each on its own lanes
// when only == 0, else just those of the flip on lanes `only`, on all
// lanes.
func seedFlips(dp *sim.DeltaProp, srcs []srcFlip, only logic.Word) {
	for _, sf := range srcs {
		switch {
		case only == 0:
			dp.SeedXOR(sf.gate, sf.bit)
		case sf.bit == only:
			dp.SeedXOR(sf.gate, ^logic.Word(0))
		}
	}
}

// Run evaluates chunk c against the current bases: it seeds each
// frame's delta propagator with the chunk's per-lane source XORs,
// propagates only the words that actually change, and returns the
// chunk's toggle activity as a sparse (ids, masks) encoding — ids
// ascending, masks[k] the per-lane toggle word of ids[k] — covering
// every gate any lane toggles. The slices are owned by the Sweeper and
// valid until the next Run.
func (s *Sweeper) Run(c int) (ids []int, masks []logic.Word) {
	if !s.based {
		panic("scan: Sweeper.Run before Rebase")
	}
	p := &s.plans[c]
	s.propagate(p, 0)

	// Diverged-gate set of either frame, deduplicated and enumerated in
	// ascending ID order through a bitmap over original gate IDs — word
	// order plus trailing-zero extraction yields the sorted walk without
	// a comparison sort. The true divergence is typically a small
	// fraction of the chunk's union structural cone: for 64 flips spread
	// across the chains that cone covers half the netlist, while logic
	// masking confines the divergence to a few hundred gates.
	s.div = s.dp1.AppendDiverged(s.div[:0])
	s.div = s.dp2.AppendDiverged(s.div)
	if s.divmap == nil {
		s.divmap = scratch.Uint64s((s.ch.Netlist().NumGates() + 63) / 64)
	}
	for _, id := range s.div {
		s.divmap[uint32(id)>>6] |= 1 << (uint32(id) & 63)
	}

	// Merge the diverged set with the base toggle set, in ascending
	// gate-ID order: a gate neither frame's propagation reached keeps
	// its base toggle word, a diverged gate carries its propagated lane
	// words. Base toggles far outnumber diverged gates, so runs of them
	// between consecutive diverged IDs are emitted as bulk copies.
	ids, masks = s.ids[:0], s.masks[:0]
	bt, bw := s.baseToggles, s.baseWords
	j := 0
	for w, dw := range s.divmap {
		if dw == 0 {
			continue
		}
		s.divmap[w] = 0
		for dw != 0 {
			id := w<<6 + bits.TrailingZeros64(dw)
			dw &= dw - 1
			k := j
			for k < len(bt) && bt[k] < id {
				k++
			}
			if k > j {
				ids = append(ids, bt[j:k]...)
				masks = append(masks, bw[j:k]...)
				j = k
			}
			var btw logic.Word
			if j < len(bt) && bt[j] == id {
				btw = bw[j]
				j++
			}
			c := s.dp1.Compact(id)
			if m := (btw ^ s.dp1.DeltaAt(c) ^ s.dp2.DeltaAt(c)) & p.laneMask; m != 0 {
				ids = append(ids, id)
				masks = append(masks, m)
			}
		}
	}
	if j < len(bt) {
		ids = append(ids, bt[j:]...)
		masks = append(masks, bw[j:]...)
	}
	if p.laneMask != ^logic.Word(0) {
		// A partial last chunk: the copied base words still carry the
		// unused lanes. Lanes 0..bases-1 are always in use, so a nonzero
		// base word stays nonzero.
		for k := range masks {
			masks[k] &= p.laneMask
		}
	}
	s.ids, s.masks = ids, masks
	return ids, masks
}
