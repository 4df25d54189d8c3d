package scan

import (
	"fmt"
	"math/bits"
	"sort"

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

// srcFlip is one source perturbation: XOR bit into the word of source
// gate `gate` to apply the flip on those lanes.
type srcFlip struct {
	gate int
	bit  logic.Word
}

// capture is one LOC frame-2 re-capture: scannable flip-flop ff takes
// its frame-2 source from the frame-1 value of its D pin.
type capture struct {
	ff, dpin int
}

// flipPlan is the source perturbation of one propagation: the per-lane
// source XORs of a lane map or of an Advance. Building one is O(lanes)
// with no netlist walk, so a transient plan per call costs nothing next
// to its propagation. LOC re-captures are not part of the plan: they
// follow from the frame-1 divergence (see propagate).
type flipPlan struct {
	f1Srcs   []srcFlip // frame-1 source bits to XOR, per lane
	f2Srcs   []srcFlip // frame-2 source bits to XOR (LOS scan cells, PIs)
	laneMask logic.Word
}

// Sweeper is the single-flip sweep engine of the adaptive flow (§IV-B)
// and the strategic pair search (§IV-D): it evaluates patterns that
// differ from a base pattern in one stimulus bit, without materializing
// them. A sweep always holds a base pair (A, B), simulated once per
// Rebase and interleaved across all 64 lanes: even lanes carry A, odd
// lanes carry B. Its one read, RunLanes, evaluates a lane map over the
// flip list — lane l is its base with any one flip applied, or the base
// itself. The adaptive climb rebases onto (X, X) and reads 64 single
// flips of X per map; the strategic search rebases onto the pair and
// reads the 32 jointly flipped pairs [A⊕f0, B⊕f0, A⊕f1, B⊕f1, …] per
// map. Each run seeds its flips as per-lane source deviations and
// propagates only the words that actually change (sim.DeltaProp) — the
// LOS transparency rule (§IV-A) guarantees the perturbation is local,
// and the full-scan structure keeps it shallow (it stops at flip-flop D
// pins). A lane's divergence is cached per (flip, base slot) and reused
// until an Advance can reach it, so a climb step re-propagates only the
// lanes the accepted flip touches.
//
// The output of a run is a sparse (ids, masks) toggle encoding whose
// pricing through power.NominalLanesSparse / power.MeasureLanesSparse is
// bit-identical to launching the materialized lane patterns through
// Engine.Launch and pricing Engine.Toggled: gates the deviation never
// reaches keep their base toggle word (the interleaved pair's toggle
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
	flips []Flip  // the flip list lane maps index

	// plan is the transient plan of RunLanes and Advance, rebuilt per
	// call over reused storage.
	plan flipPlan

	// captures lists the LOC re-captures — every scannable flip-flop
	// with its D pin — sorted by D pin, so the flip-flops a frame-1
	// divergence re-captures are found by binary search. nil under LOS.
	captures []capture

	// Base-pair state (valid after Rebase): the interleaved base frame
	// values, the ascending gate IDs either base toggles, and — parallel
	// to baseToggles — their toggle words, which unreached gates emit.
	f1b, f2b    []logic.Word
	baseToggles []int
	baseWords   []logic.Word
	based       bool

	// Sparse output buffers, valid until the next RunLanes.
	ids   []int
	masks []logic.Word

	// Delta-propagation state: one propagator per frame, built by the
	// first Rebase and holding the current base pair's frame words. div
	// is the per-run scratch of diverged gate IDs.
	dp1    *sim.DeltaProp
	dp2    *sim.DeltaProp
	div    []int32
	divmap []uint64

	// The per-lane divergence cache (see RunLanes and Advance): one slot
	// per (flip, base slot) — a single base slot after Rebase(X, X),
	// else one per lane parity — naming the range of cache that lists
	// the lane's diverged gates, one entry per gate: its compact ID
	// shifted left by two, then a bit per frame it diverges in. live
	// lists the cached slots in cache order, so Advance drops and
	// compacts in one pass. cache is a pooled array of cacheCap
	// entries, taken at the first fill. advanced reports an Advance
	// since the last Rebase: only then are lanes cached.
	slots    []cacheSlot
	live     []int32
	cache    []uint32
	cacheCap int
	oneBase  bool
	advanced bool
	laneBuf  [64][]uint32 // per-run scratch: missed lanes' entries
	marks    []uint64     // per-call scratch: two frame bits per compact ID, zero between calls

	// Flip lanes read and flip lanes propagated, over the sweeper's life.
	lanesRead, lanesPropagated int
}

// cacheSlot is one cached lane divergence: cache[off : off+n].
type cacheSlot struct {
	off, n int32
	cached bool
}

// cacheGatesFactor caps a sweeper's divergence cache at this many
// entries per gate.
const cacheGatesFactor = 4

// NewSweeper builds a sweep engine over eng's scan configuration for the
// given flip list, which lane maps address by index. Rebase launches the
// base pair through eng, so the sweep sees eng's hidden NoScan state;
// eng may launch other patterns between sweeper calls. Setup is
// O(flips), plus a sort of the scannable flip-flops by D pin under LOC,
// plus pooled per-net buffers, so per-lot construction cost stays flat
// as netlists grow.
func NewSweeper(eng *Engine, mode Mode, flips []Flip) (*Sweeper, error) {
	ch := eng.Chains()
	n := ch.Netlist()
	for _, f := range flips {
		if err := checkFlip(ch, f); err != nil {
			return nil, err
		}
	}
	s := &Sweeper{
		ch:       ch,
		mode:     mode,
		eng:      eng,
		flips:    append([]Flip(nil), flips...),
		f1b:      scratch.Words(n.NumGates()),
		f2b:      scratch.Words(n.NumGates()),
		slots:    make([]cacheSlot, 2*len(flips)),
		cacheCap: cacheGatesFactor * n.NumGates(),
	}
	if mode == LOC {
		for _, ff := range n.FFs {
			if !n.IsNoScan(ff) {
				s.captures = append(s.captures, capture{ff, n.Gates[ff].Fanin[0]})
			}
		}
		sort.Slice(s.captures, func(i, j int) bool {
			a, b := s.captures[i], s.captures[j]
			return a.dpin < b.dpin || a.dpin == b.dpin && a.ff < b.ff
		})
	}
	return s, nil
}

// checkFlip reports whether f addresses a stimulus bit of ch.
func checkFlip(ch *Chains, f Flip) error {
	if f.IsPI() {
		if npi := len(ch.Netlist().PIs); f.Index < 0 || f.Index >= npi {
			return fmt.Errorf("scan: sweep flip PI %d out of range (%d PIs)", f.Index, npi)
		}
		return nil
	}
	if f.Chain < 0 || f.Chain >= ch.NumChains() {
		return fmt.Errorf("scan: sweep flip chain %d out of range (%d chains)", f.Chain, ch.NumChains())
	}
	if f.Index < 0 || f.Index >= len(ch.Chain(f.Chain)) {
		return fmt.Errorf("scan: sweep flip cell %d.%d out of range (chain length %d)",
			f.Chain, f.Index, len(ch.Chain(f.Chain)))
	}
	return nil
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
	if s.cache != nil {
		scratch.PutUint32s(s.cache)
		scratch.PutUint64s(s.marks)
		s.cache, s.marks = nil, nil
	}
	s.slots, s.live = nil, nil
	if s.dp1 != nil {
		s.dp1.Release()
		s.dp2.Release()
		s.dp1, s.dp2 = nil, nil
	}
	s.based = false
}

// laneMaskOf returns the word with the low n lanes set.
func laneMaskOf(n int) logic.Word {
	if n >= 64 {
		return ^logic.Word(0)
	}
	return logic.Word(1)<<uint(n) - 1
}

// addFlip appends the source perturbation of flip f on lanes bit to
// the plan. No netlist walk happens here.
func (p *flipPlan) addFlip(ch *Chains, mode Mode, f Flip, bit logic.Word) {
	if f.IsPI() {
		// PIs hold across both frames under either mode.
		id := ch.Netlist().PIs[f.Index]
		p.f1Srcs = append(p.f1Srcs, srcFlip{id, bit})
		p.f2Srcs = append(p.f2Srcs, srcFlip{id, bit})
		return
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
		// frame-1 responses (see Sweeper.propagate).
		p.f1Srcs = append(p.f1Srcs, srcFlip{chain[f.Index], bit})
	}
}

// transientPlan resets the sweeper's reusable plan for a propagation
// over n lanes.
func (s *Sweeper) transientPlan(n int) *flipPlan {
	p := &s.plan
	p.f1Srcs, p.f2Srcs = p.f1Srcs[:0], p.f2Srcs[:0]
	p.laneMask = laneMaskOf(n)
	return p
}

// Chains returns the sweep's scan configuration.
func (s *Sweeper) Chains() *Chains { return s.ch }

// Mode returns the launch mode the sweep simulates.
func (s *Sweeper) Mode() Mode { return s.mode }

// Rebase simulates the two frames of a new base pair and resets the
// working lane words to their interleaved values: even lanes carry a,
// odd lanes carry b. A single-pattern sweep rebases onto (X, X): with a
// and b the same pattern, even and odd lanes share one cache slot per
// flip. Rebase clears the divergence cache. Must be called before
// RunLanes and after every change to a base pattern.
func (s *Sweeper) Rebase(a, b *Pattern) error {
	f1, f2, err := s.eng.Launch([]*Pattern{a, b}, s.mode)
	if err != nil {
		return err
	}
	// Multiplying a word's low two bits by 0x5555… copies them into
	// every two-lane block (the blocks never overlap, so nothing
	// carries): lanes 0 and 1 interleave across the word.
	const rep = ^logic.Word(0) / 3
	for id := range f1 {
		s.f1b[id], s.f2b[id] = (f1[id]&3)*rep, (f2[id]&3)*rep
	}
	s.collectBaseToggles()
	if s.dp1 == nil {
		n := s.ch.Netlist()
		s.dp1 = sim.NewDeltaProp(n)
		s.dp2 = sim.NewDeltaProp(n)
	}
	s.dp1.SetBase(s.f1b)
	s.dp2.SetBase(s.f2b)
	for _, si := range s.live {
		s.slots[si].cached = false
	}
	s.live, s.cache = s.live[:0], s.cache[:0]
	s.oneBase = a == b
	s.advanced = false
	s.based = true
	return nil
}

// slotOf returns the cache slot of flip fi on lane l.
func (s *Sweeper) slotOf(fi, l int) int {
	if s.oneBase {
		return 2 * fi
	}
	return 2*fi + l&1
}

// mark sets frame bits fb (1 for frame 1, 2 for frame 2) of compact
// gate c in marks.
func (s *Sweeper) mark(c int32, fb uint32) {
	s.marks[c>>5] |= uint64(fb) << (uint(c&31) * 2)
}

// marked returns the frame bits of compact gate c set in marks.
func (s *Sweeper) marked(c int32) uint32 {
	return uint32(s.marks[c>>5]>>(uint(c&31)*2)) & 3
}

// collectBaseToggles rebuilds the ascending list of gates either base
// toggles and their toggle words.
func (s *Sweeper) collectBaseToggles() {
	s.baseToggles, s.baseWords = sim.AppendToggled(s.f1b, s.f2b, s.baseToggles[:0], s.baseWords[:0])
}

// Advance incrementally rebases the sweeper onto the pair that differs
// from the current one in exactly the given flip, applied to both
// patterns — the accepted step of the adaptive climb, or the accepted
// joint flip of a strategic pair. Instead of a full two-frame launch, it
// propagates a transient plan that applies the flip on every lane,
// commits exactly the diverged gates into the interleaved base and into
// both propagators, and rebuilds the base toggle list. Two-valued logic
// is exact and gates the deviation never reaches keep their old words,
// so the resulting state is identical to a Rebase on the materialized
// pair. Any stimulus bit of the scan configuration may be advanced,
// whether or not it is in the sweep's flip list.
//
// Advance keeps every cached lane divergence the step cannot change
// (see invalidate), so the next RunLanes re-propagates only the lanes
// the step can reach.
func (s *Sweeper) Advance(f Flip) error {
	if !s.based {
		return fmt.Errorf("scan: Sweeper.Advance before Rebase")
	}
	if err := checkFlip(s.ch, f); err != nil {
		return err
	}
	p := s.transientPlan(64)
	p.addFlip(s.ch, s.mode, f, ^logic.Word(0))
	s.propagate(p)
	s.invalidate()
	s.advanced = true

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
	s.dp1.Commit()
	s.dp2.Commit()
	s.collectBaseToggles()
	return nil
}

// invalidate drops every cached lane divergence the live propagation —
// an Advance's, not yet committed — may change, and compacts the rest.
//
// Per frame, let D be the step's divergence and S a lane's. The lane
// evaluates only fanout(S), and each such gate reads the same fanin
// words under the new base unless it is in fanout(D); gates outside
// fanout(S) keep a zero deviation. So the lane's divergence is unchanged
// when S ∩ D = ∅ and fanout(S) ∩ fanout(D) = ∅, that is when S misses
// X = D ∪ fanin(fanout(D)). Under LOC a re-captured flip-flop is in a
// frame-2 divergence exactly when its D pin is in the frame-1 one, so
// the frame-1 test already covers the captures.
func (s *Sweeper) invalidate() {
	if len(s.live) == 0 {
		return
	}
	soa := s.ch.Netlist().SoA()
	for k, dp := range [2]*sim.DeltaProp{s.dp1, s.dp2} {
		fb := uint32(1) << k
		s.div = dp.AppendDivergedAt(s.div[:0])
		for _, d := range s.div {
			s.mark(d, fb)
			for _, g := range soa.FanoutOf(d) {
				for _, c := range soa.FaninOf(g) {
					s.mark(c, fb)
				}
			}
		}
	}
	w, live := 0, s.live[:0]
	for _, si := range s.live {
		sl := &s.slots[si]
		ents := s.cache[sl.off : sl.off+sl.n]
		keep := true
		for _, e := range ents {
			if s.marked(int32(e>>2))&e != 0 {
				keep = false
				break
			}
		}
		if !keep {
			sl.cached = false
			continue
		}
		copy(s.cache[w:], ents)
		sl.off = int32(w)
		w += len(ents)
		live = append(live, si)
	}
	s.cache, s.live = s.cache[:w], live
	clear(s.marks)
}

// propagate runs both frames' delta propagators over plan p's source
// deviations from the current bases.
//
// Under LOC, frame 2 re-captures every scannable flip-flop from its D
// pin's frame-1 value. Only flip-flops whose D pin diverged in frame 1
// are seeded: the base frames of a real launch already satisfy
// f2b[ff] == frame1(dpin), so an undiverged pin's seed would be zero.
func (s *Sweeper) propagate(p *flipPlan) {
	s.dp1.Begin()
	for _, sf := range p.f1Srcs {
		s.dp1.SeedXOR(sf.gate, sf.bit)
	}
	s.dp1.Run()
	s.dp2.Begin()
	for _, sf := range p.f2Srcs {
		s.dp2.SeedXOR(sf.gate, sf.bit)
	}
	if s.captures != nil {
		s.div = s.dp1.AppendDiverged(s.div[:0])
		for _, id := range s.div {
			dpin := int(id)
			k := sort.Search(len(s.captures), func(i int) bool { return s.captures[i].dpin >= dpin })
			for ; k < len(s.captures) && s.captures[k].dpin == dpin; k++ {
				ff := s.captures[k].ff
				s.dp2.SeedXOR(ff, s.dp1.Value(dpin)^s.f2b[ff])
			}
		}
	}
	s.dp2.Run()
}

// RunLanes evaluates a lane map against the current base pair: lane l
// carries base A when l is even and B when odd, with flip lanes[l] of
// the sweep's flip list applied, or unflipped when lanes[l] is negative.
// 1..64 lanes; a flip may appear on several lanes. It seeds each frame's
// delta propagator with the lanes' source XORs, propagates only the
// words that actually change, and returns the lanes' toggle activity as
// a sparse (ids, masks) encoding — ids ascending, masks[k] the per-lane
// toggle word of ids[k] — exactly what launching the materialized lane
// patterns through Engine.Launch and reading Engine.Toggled gives within
// those lanes. The slices are owned by the Sweeper and valid until the
// next RunLanes.
//
// Lanes are independent under 64-lane word evaluation, so a lane's
// divergence depends only on its flip and its base. Only lanes with no
// cached divergence are propagated; their divergences are then cached
// (within cacheCap), and the cached lanes' bits are XORed into both
// propagators. The flows read each lane about once per base, so a cached
// lane pays off only across an Advance: lanes are cached only once the
// base has advanced since the last Rebase, and a search that stops after
// one step never pays for a fill. The XOR comes after both frames have
// run, because under LOC the frame-2 capture seeds read frame-1 values.
// The lanes are disjoint, so the bits never cancel, and the deviated
// state — hence emit, the pricing and the next Begin's rollback — is the
// full propagation's.
func (s *Sweeper) RunLanes(lanes []int) (ids []int, masks []logic.Word) {
	if !s.based {
		panic("scan: Sweeper.RunLanes before Rebase")
	}
	if len(lanes) == 0 || len(lanes) > 64 {
		panic(fmt.Sprintf("scan: Sweeper.RunLanes over %d lanes (want 1..64)", len(lanes)))
	}
	p := s.transientPlan(len(lanes))
	var miss, hit logic.Word
	for l, fi := range lanes {
		if fi < 0 {
			continue
		}
		bit := logic.Word(1) << uint(l)
		s.lanesRead++
		if s.slots[s.slotOf(fi, l)].cached {
			hit |= bit
			continue
		}
		s.lanesPropagated++
		miss |= bit
		p.addFlip(s.ch, s.mode, s.flips[fi], bit)
	}
	s.propagate(p)
	if miss != 0 && s.advanced {
		s.fill(lanes, miss)
	}
	for d := hit; d != 0; d &= d - 1 {
		l := bits.TrailingZeros64(uint64(d))
		bit := logic.Word(1) << uint(l)
		sl := s.slots[s.slotOf(lanes[l], l)]
		for _, e := range s.cache[sl.off : sl.off+sl.n] {
			c := int32(e >> 2)
			if e&1 != 0 {
				s.dp1.XORAt(c, bit)
			}
			if e&2 != 0 {
				s.dp2.XORAt(c, bit)
			}
		}
	}
	return s.emit(p.laneMask)
}

// fill caches the divergence of each propagated lane in miss whose slot
// is empty and fits under cacheCap. Each diverged gate is visited once
// across both frames (marks dedupes the two touched lists) and appends
// one entry, carrying both frame bits, to each of its lanes.
func (s *Sweeper) fill(lanes []int, miss logic.Word) {
	if s.cache == nil {
		s.cache = scratch.Uint32s(s.cacheCap)[:0]
		s.marks = scratch.Uint64s((s.ch.Netlist().NumGates() + 31) / 32)
	}
	for _, dp := range [2]*sim.DeltaProp{s.dp1, s.dp2} {
		s.div = dp.AppendDivergedAt(s.div[:0])
		for _, c := range s.div {
			if s.marked(c) != 0 {
				continue
			}
			s.mark(c, 1)
			d1, d2 := s.dp1.DeltaAt(c)&miss, s.dp2.DeltaAt(c)&miss
			for d := d1 | d2; d != 0; d &= d - 1 {
				l := bits.TrailingZeros64(uint64(d))
				e := uint32(c)<<2 | uint32(d1>>uint(l)&1) | uint32(d2>>uint(l)&1)<<1
				s.laneBuf[l] = append(s.laneBuf[l], e)
			}
		}
	}
	clear(s.marks)
	for d := miss; d != 0; d &= d - 1 {
		l := bits.TrailingZeros64(uint64(d))
		ents := s.laneBuf[l]
		s.laneBuf[l] = ents[:0]
		si := s.slotOf(lanes[l], l)
		sl := &s.slots[si]
		if sl.cached || len(s.cache)+len(ents) > s.cacheCap {
			continue
		}
		*sl = cacheSlot{off: int32(len(s.cache)), n: int32(len(ents)), cached: true}
		s.cache = append(s.cache, ents...)
		s.live = append(s.live, int32(si))
	}
}

// emit merges the last propagation's diverged gates into the base
// toggle list and returns the sparse encoding of the lanes in laneMask.
func (s *Sweeper) emit(laneMask logic.Word) (ids []int, masks []logic.Word) {
	// Diverged-gate set of either frame, deduplicated and enumerated in
	// ascending ID order through a bitmap over original gate IDs — word
	// order plus trailing-zero extraction yields the sorted walk without
	// a comparison sort. The true divergence is typically a small
	// fraction of the run's union structural cone: for 64 flips spread
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
			if m := (btw ^ s.dp1.DeltaAt(c) ^ s.dp2.DeltaAt(c)) & laneMask; m != 0 {
				ids = append(ids, id)
				masks = append(masks, m)
			}
		}
	}
	if j < len(bt) {
		ids = append(ids, bt[j:]...)
		masks = append(masks, bw[j:]...)
	}
	if laneMask != ^logic.Word(0) {
		// Fewer than 64 lanes: the copied base words still carry the
		// unused lanes. Mask them off, dropping a base toggle no used
		// lane carries (a word only B toggles, under a one-lane map).
		k := 0
		for i, m := range masks {
			if m &= laneMask; m != 0 {
				ids[k], masks[k] = ids[i], m
				k++
			}
		}
		ids, masks = ids[:k], masks[:k]
	}
	s.ids, s.masks = ids, masks
	return ids, masks
}
