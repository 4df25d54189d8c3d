package sim

import (
	"superpose/internal/logic"
	"superpose/internal/netlist"
	"superpose/internal/scratch"
)

// DeltaProp is the event-driven divergence propagator over the SoA
// netlist core: given one frame's fault-free base words (the 64 lanes of
// a batch launch, a broadcast, or two interleaved base patterns), it
// computes how a set of source perturbations deviates the frame by
// propagating only actual word changes through the fanout structure.
// It serves both event-driven jobs:
//
//   - sweeps seed many sources (a chunk's per-flip lane XOR seeds) via
//     Begin/SeedXOR/Run and query the full deviated state afterwards;
//     they XOR in lanes propagated earlier with XORAt, and adopt an
//     accepted deviation as the new base with Commit;
//   - fault simulation forces one site via Propagate and reduces the
//     deviation to the lanes on which it reaches an observation point
//     (see Observe), stopping after the level whose deviations cover
//     every launch lane.
//
// The payoff is that logic masking kills most divergence within a few
// levels, so the touched set is typically a small fraction of the
// structural cone. Gates the deviation never reaches keep their base
// words by construction, so the result is bit-identical to re-evaluating
// the netlist in full — two-valued logic has one answer; only the work
// changes.
//
// val is a full materialized copy of base: Begin un-does the previous
// propagation's touched entries (a short list), which keeps the hot eval
// loop free of per-fanin mark checks — it reads val directly, exactly
// like PPSFP.RunInto's full walk over its value plane, through the same
// evaluator.
//
// A DeltaProp owns its state and is not safe for concurrent use.
type DeltaProp struct {
	soa  *netlist.SoA
	base []logic.Word // compact-indexed frame base values
	val  []logic.Word // == base except at the live propagation's touched set

	sched   []uint32 // epoch guard for bucket membership
	epoch   uint32
	buckets [][]int32 // per-level worklists, drained low to high

	touched []int32 // compact IDs whose val may deviate this propagation

	isObs []bool // compact-indexed observation points Propagate reduces over
}

// NewDeltaProp builds a propagator for n. The O(gates) working arrays
// come from shared size-class pools; Release returns them when the
// propagator is done, so per-lot construction churn stays flat.
func NewDeltaProp(n *netlist.Netlist) *DeltaProp {
	s := n.SoA()
	return &DeltaProp{
		soa:     s,
		base:    scratch.Words(s.NumGates),
		val:     scratch.Words(s.NumGates),
		sched:   scratch.Uint32s(s.NumGates),
		buckets: make([][]int32, s.MaxLevel+1),
	}
}

// Release returns the propagator's pooled working arrays. The DeltaProp
// must not be used afterwards.
func (dp *DeltaProp) Release() {
	if dp.base == nil {
		return
	}
	scratch.PutWords(dp.base)
	scratch.PutWords(dp.val)
	scratch.PutUint32s(dp.sched)
	dp.base, dp.val, dp.sched = nil, nil, nil
}

// SetBase loads the frame's fault-free values (original-indexed, one
// word per net) that subsequent propagations deviate from.
func (dp *DeltaProp) SetBase(values []logic.Word) {
	for c, id := range dp.soa.Orig {
		w := values[id]
		dp.base[c] = w
		dp.val[c] = w
	}
	dp.touched = dp.touched[:0] // val == base everywhere again
}

// Begin starts a new propagation: it rolls the previous one's touched
// entries back to base, then seeds accumulate via SeedXOR until Run
// drains the deviation.
func (dp *DeltaProp) Begin() {
	for _, c := range dp.touched {
		dp.val[c] = dp.base[c]
	}
	dp.touched = dp.touched[:0]
	dp.epoch++
	if dp.epoch == 0 { // uint32 wraparound: restart the scheduling guard
		clear(dp.sched)
		dp.epoch = 1
	}
}

// SeedXOR XORs delta into source net's word (original ID). Seeds are
// cumulative — two seeds on the same net compose exactly like two XORs
// into a working array — and a zero net deviation (delta folding back
// to base) propagates nothing.
func (dp *DeltaProp) SeedXOR(net int, delta logic.Word) {
	if delta == 0 {
		return
	}
	dp.XORAt(dp.soa.Compact[net], delta)
}

// XORAt XORs delta into compact gate c's word and records c as touched,
// exactly like SeedXOR, but is meant for after Run: it schedules
// nothing, so the caller supplies a deviation already propagated
// elsewhere — a sweep lane's cached divergence, on lanes the run left
// untouched. Begin rolls it back like any other touched entry.
func (dp *DeltaProp) XORAt(c int32, delta logic.Word) {
	if dp.val[c] == dp.base[c] {
		dp.touched = append(dp.touched, c)
	}
	dp.val[c] ^= delta
}

// Commit adopts the live propagation's words as the new base: the
// O(touched) equivalent of SetBase on the deviated frame. The next
// Begin then has nothing to roll back.
func (dp *DeltaProp) Commit() {
	for _, c := range dp.touched {
		dp.base[c] = dp.val[c]
	}
	dp.touched = dp.touched[:0]
}

// Observe sets the observation nets (original IDs — e.g. primary
// outputs and scan-cell D pins) a Propagate deviation must reach to
// count, replacing any earlier set.
func (dp *DeltaProp) Observe(obs []int) {
	dp.isObs = make([]bool, dp.soa.NumGates)
	for _, o := range obs {
		dp.isObs[dp.soa.Compact[o]] = true
	}
}

// Run propagates the seeded deviation to fixpoint: level-bucketed
// worklists, evaluating a gate only when a fanin's word actually
// changed, dropping branches the logic masks off.
func (dp *DeltaProp) Run() { dp.drain(nil, 0) }

// Propagate starts a new propagation that forces net (original ID) to
// the word forced and returns the lanes — restricted to launch — on
// which the deviation reaches an observation point set by Observe:
// exactly the observed diff&launch of a full faulty-machine
// re-simulation. It stops after the level whose deviations cover every
// launch lane, so the deviated state it leaves behind is complete only
// when the result falls short of launch.
func (dp *DeltaProp) Propagate(net int, forced, launch logic.Word) logic.Word {
	dp.Begin()
	dp.SeedXOR(net, dp.base[dp.soa.Compact[net]]^forced)
	return dp.drain(dp.isObs, launch)
}

// drain runs the level-bucketed worklist from the seeds in touched.
// With a non-nil isObs it also ORs in the deviation of every observed
// net, level by level, and returns that diff restricted to launch,
// stopping after the first level that covers launch; Run drains to
// fixpoint with nil.
func (dp *DeltaProp) drain(isObs []bool, launch logic.Word) logic.Word {
	s := dp.soa
	epoch := dp.epoch
	lo, hi := s.MaxLevel+1, 0
	schedule := func(c int32) {
		for _, g := range s.FanoutOf(c) {
			if dp.sched[g] != epoch {
				dp.sched[g] = epoch
				l := int(s.Level[g])
				dp.buckets[l] = append(dp.buckets[l], g)
				if l < lo {
					lo = l
				}
				if l > hi {
					hi = l
				}
			}
		}
	}
	// touched holds exactly the seeds at this point; seeds whose deltas
	// folded back to zero wake nothing.
	for _, c := range dp.touched {
		if dp.val[c] != dp.base[c] {
			schedule(c)
		}
	}
	var diff logic.Word
	observed := 0 // touched entries already ORed into diff
	for l := lo; ; l++ {
		if isObs != nil {
			for _, c := range dp.touched[observed:] {
				if isObs[c] {
					diff |= dp.val[c] ^ dp.base[c]
				}
			}
			observed = len(dp.touched)
			if diff&launch == launch {
				// The buckets above still hold work that must not leak
				// into the next propagation.
				for ; l <= hi; l++ {
					dp.buckets[l] = dp.buckets[l][:0]
				}
				return launch
			}
		}
		if l > hi {
			return diff & launch
		}
		// A gate's fanouts sit at strictly higher levels, so the bucket
		// being drained never grows under its own iteration.
		for _, g := range dp.buckets[l] {
			nv := eval(s, dp.val, g)
			// val[g] is still base[g] here: fanout CSR edges never lead to
			// source gates, so an evaluated gate is never a seed, and the
			// epoch guard admits each gate to its level bucket only once.
			if nv == dp.base[g] {
				continue // deviation masked off at this gate
			}
			dp.val[g] = nv
			dp.touched = append(dp.touched, g)
			schedule(g)
		}
		dp.buckets[l] = dp.buckets[l][:0]
	}
}

// Value returns net's current word (original ID): the base word moved
// by however much of the seeded deviation reached it.
func (dp *DeltaProp) Value(net int) logic.Word {
	return dp.val[dp.soa.Compact[net]]
}

// DeltaOf returns net's deviation word value^base (original ID); zero
// when the propagation never reached it.
func (dp *DeltaProp) DeltaOf(net int) logic.Word {
	c := dp.soa.Compact[net]
	return dp.val[c] ^ dp.base[c]
}

// DeltaAt is DeltaOf in the compact index space — for callers merging
// several propagators over the same SoA, which resolve the compact
// index once via Compact.
func (dp *DeltaProp) DeltaAt(c int32) logic.Word {
	return dp.val[c] ^ dp.base[c]
}

// Compact translates an original net ID into the propagator's compact
// index space (shared by every DeltaProp over the same netlist).
func (dp *DeltaProp) Compact(net int) int32 {
	return dp.soa.Compact[net]
}

// AppendDiverged appends the original IDs of every net whose word
// deviates from base after Run — seeds whose deltas folded back to zero
// excluded — in no particular order.
func (dp *DeltaProp) AppendDiverged(ids []int32) []int32 {
	for _, c := range dp.touched {
		if dp.val[c] != dp.base[c] {
			ids = append(ids, dp.soa.Orig[c])
		}
	}
	return ids
}

// AppendDivergedAt is AppendDiverged in the compact index space.
func (dp *DeltaProp) AppendDivergedAt(cs []int32) []int32 {
	for _, c := range dp.touched {
		if dp.val[c] != dp.base[c] {
			cs = append(cs, c)
		}
	}
	return cs
}

// eval computes compact gate g of s from its fanins' words in val. It
// is the package's one 64-lane gate evaluator: PPSFP.RunInto applies it
// to every combinational gate in level order, DeltaProp only to the
// gates a deviation reaches. The word algebra is evalGate's, over the
// SoA layout.
func eval(s *netlist.SoA, val []logic.Word, g int32) logic.Word {
	fanin := s.FaninOf(g)
	switch s.Typ[g] {
	case netlist.Buf:
		return val[fanin[0]]
	case netlist.Not:
		return ^val[fanin[0]]
	case netlist.And, netlist.Nand:
		w := logic.AllOne
		for _, f := range fanin {
			w &= val[f]
		}
		if s.Typ[g] == netlist.Nand {
			w = ^w
		}
		return w
	case netlist.Or, netlist.Nor:
		w := logic.AllZero
		for _, f := range fanin {
			w |= val[f]
		}
		if s.Typ[g] == netlist.Nor {
			w = ^w
		}
		return w
	case netlist.Xor, netlist.Xnor:
		w := logic.AllZero
		for _, f := range fanin {
			w ^= val[f]
		}
		if s.Typ[g] == netlist.Xnor {
			w = ^w
		}
		return w
	default:
		panic("sim: eval on a source gate")
	}
}
