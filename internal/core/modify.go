package core

import (
	"fmt"
	"math"
	"math/bits"

	"superpose/internal/logic"
	"superpose/internal/scan"
)

// ModKind classifies a strategic modification per the suite of Fig. 2.
type ModKind uint8

const (
	// EliminateTwo removes two transitions (11011 -> 11111).
	EliminateTwo ModKind = iota
	// IntroduceTwo creates two transitions (00000 -> 00100).
	IntroduceTwo
	// MoveTransition relocates a transition launch point by one cell
	// (000111 -> 000011 or 001111).
	MoveTransition
	// EliminateOne removes a single transition at a chain end
	// (00001 -> 00000).
	EliminateOne
	// IntroduceOne creates a single transition at a chain end
	// (11111 -> 01111).
	IntroduceOne
	// SensitizePI flips a primary input: no launch activity changes, only
	// side-input sensitization of the combinational logic.
	SensitizePI
	// NoEffect leaves the transition count and positions unchanged
	// (single-cell chains).
	NoEffect
)

// String names the modification kind.
func (k ModKind) String() string {
	switch k {
	case EliminateTwo:
		return "eliminate-two"
	case IntroduceTwo:
		return "introduce-two"
	case MoveTransition:
		return "move-transition"
	case EliminateOne:
		return "eliminate-one"
	case IntroduceOne:
		return "introduce-one"
	case SensitizePI:
		return "sensitize-pi"
	case NoEffect:
		return "no-effect"
	default:
		return fmt.Sprintf("ModKind(%d)", uint8(k))
	}
}

// ClassifyFlip reports which Fig. 2 modification flipping bit (chain, idx)
// performs on the pattern. Primary-input flips (chain == PIChain) classify
// as SensitizePI.
func ClassifyFlip(p *scan.Pattern, chain, idx int) ModKind {
	if chain == PIChain {
		return SensitizePI
	}
	n := len(p.Scan[chain])
	delta := transitionDelta(p, chain, idx)
	interior := idx > 0 && idx < n-1
	switch {
	case delta == -2:
		return EliminateTwo
	case delta == 2:
		return IntroduceTwo
	case delta == -1:
		return EliminateOne
	case delta == 1:
		return IntroduceOne
	case interior:
		return MoveTransition
	default:
		return NoEffect
	}
}

// AnalyzePairs evaluates many pattern pairs through superposition,
// batching 32 pairs (64 lanes, pair i on lanes 2i and 2i+1) per
// simulator launch.
func (ev *Evaluator) AnalyzePairs(pairs [][2]*scan.Pattern) []PairAnalysis {
	out := make([]PairAnalysis, len(pairs))
	flat := make([]*scan.Pattern, 0, 64)
	for start := 0; start < len(pairs); start += 32 {
		group := pairs[start:min(start+32, len(pairs))]
		flat = flat[:0]
		for _, pr := range group {
			flat = append(flat, pr[0], pr[1])
		}
		// measureChunk prices the batch from the golden engine's sparse
		// toggle encoding and decomposes it on the golden side.
		readings := ev.measureChunk(flat, true)
		ev.analyzeLanes(readings, out[start:start+len(group)])
		for i, pr := range group {
			out[start+i].A, out[start+i].B = pr[0], pr[1]
		}
	}
	return out
}

// decompose is the golden half of the pair analysis of one chunk: from
// the golden toggle encoding (ids, masks) of its numLanes lanes — ids the
// ascending gate IDs of masks — it computes the unique parts' nominal
// and squared-energy sums (ev.nomU, ev.sqU) and the per-lane toggled and
// unique gate counts (ev.toggledN, ev.uniqueN) that analyzeLanes reads.
//
// The §V-A decomposition is read off the lane masks directly: with
// u = m &^ swapAdjacentLanes(m), lane 2i of u marks the gates only A
// toggles and lane 2i+1 those only B toggles. The unique sets' nominal
// and squared-energy sums are lane sums of u priced by the sparse lane
// kernel, which adds in ascending gate-ID order exactly as a sum over
// the split toggle lists does — so the sums are bit-identical, and no
// per-lane toggle list is ever built.
// Counts come from vertical lane counters: |A \ B| from u, and the
// common part as |A| − |A \ B|.
func (ev *Evaluator) decompose(ids []int, masks []logic.Word, numLanes int) {
	laneMask := ^logic.Word(0)
	if numLanes < 64 {
		laneMask = logic.Word(1)<<uint(numLanes) - 1
	}
	uids, umasks := ev.uids[:0], ev.umasks[:0]
	for k, m := range masks {
		if u := (m &^ swapAdjacentLanes(m)) & laneMask; u != 0 {
			uids = append(uids, ids[k])
			umasks = append(umasks, u)
		}
	}
	ev.uids, ev.umasks = uids, umasks
	ev.nomU = ev.model.NominalLanesSparse(uids, umasks, numLanes, ev.nomU)
	ev.sqU = ev.model.SumSquaresLanesSparse(uids, umasks, numLanes, ev.sqU)
	ev.toggledN, ev.uniqueN = laneCounts(masks, laneMask), laneCounts(umasks, laneMask)
}

// analyzeLanes fills out[i] with the superposition analysis of the pair
// on lanes 2i (A) and 2i+1 (B) of one chunk: its readings and the
// decomposition its read left behind (see decompose).
func (ev *Evaluator) analyzeLanes(readings []Reading, out []PairAnalysis) {
	for i := range out {
		ra, rb := readings[2*i], readings[2*i+1]
		a, b := 2*i, 2*i+1
		pa := PairAnalysis{
			ObservedA: ra.Observed, ObservedB: rb.Observed,
			NominalA: ra.Nominal, NominalB: rb.Nominal,
			CommonCount:  ev.toggledN[a] - ev.uniqueN[a],
			AUniqueCount: ev.uniqueN[a], BUniqueCount: ev.uniqueN[b],
			NominalAUnique: ev.nomU[a],
			NominalBUnique: ev.nomU[b],
			UniqueEnergySq: ev.sqU[a] + ev.sqU[b],
		}
		pa.SRPD = SRPD(pa.ObservedA, pa.ObservedB, pa.NominalA, pa.NominalB,
			pa.NominalAUnique, pa.NominalBUnique)
		out[i] = pa
	}
}

// swapAdjacentLanes exchanges lanes 2i and 2i+1 of a mask word.
func swapAdjacentLanes(m logic.Word) logic.Word {
	const even = 0x5555555555555555
	return (m&even)<<1 | (m>>1)&even
}

// laneCounts returns, per lane, how many words of ws have that lane's
// bit set (after ANDing mask). It counts vertically — bitwise across
// whole words — with a carry-save adder tree (Harley–Seal): each block
// of 16 words folds into running ones/twos/fours/eights words with no
// data-dependent branch, and only the block's carry into the sixteens
// ripples into the bit-sliced total, where plane b holds bit b of every
// lane's count of sixteens.
func laneCounts(ws []logic.Word, mask logic.Word) [64]int {
	var ones, twos, fours, eights logic.Word
	var planes [40]logic.Word
	i := 0
	for ; i+16 <= len(ws); i += 16 {
		w := ws[i : i+16 : i+16]
		var twosA, twosB, foursA, foursB, eightsA, eightsB, sixteens logic.Word
		twosA, ones = csa(ones, w[0]&mask, w[1]&mask)
		twosB, ones = csa(ones, w[2]&mask, w[3]&mask)
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, w[4]&mask, w[5]&mask)
		twosB, ones = csa(ones, w[6]&mask, w[7]&mask)
		foursB, twos = csa(twos, twosA, twosB)
		eightsA, fours = csa(fours, foursA, foursB)
		twosA, ones = csa(ones, w[8]&mask, w[9]&mask)
		twosB, ones = csa(ones, w[10]&mask, w[11]&mask)
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, w[12]&mask, w[13]&mask)
		twosB, ones = csa(ones, w[14]&mask, w[15]&mask)
		foursB, twos = csa(twos, twosA, twosB)
		eightsB, fours = csa(fours, foursA, foursB)
		sixteens, eights = csa(eights, eightsA, eightsB)
		for b := 0; sixteens != 0; b++ {
			carry := planes[b] & sixteens
			planes[b] ^= sixteens
			sixteens = carry
		}
	}
	var n [64]int
	addBits := func(w logic.Word, weight int) {
		for w != 0 {
			n[bits.TrailingZeros64(uint64(w))] += weight
			w &= w - 1
		}
	}
	for b, p := range planes {
		addBits(p, 16<<b)
	}
	addBits(eights, 8)
	addBits(fours, 4)
	addBits(twos, 2)
	addBits(ones, 1)
	for _, w := range ws[i:] {
		addBits(w&mask, 1)
	}
	return n
}

// csa is a bitwise full adder over three words: per bit, lo is the sum
// bit and hi the carry.
func csa(a, b, c logic.Word) (hi, lo logic.Word) {
	u := a ^ b
	return a&b | u&c, u ^ c
}

// AppliedMod records one accepted strategic modification.
type AppliedMod struct {
	Cell       CellRef `json:"cell"`
	Kind       ModKind `json:"kind"`
	SRPDBefore float64 `json:"srpd_before"`
	SRPDAfter  float64 `json:"srpd_after"`
}

// StrategicOptions tunes the §IV-D search.
type StrategicOptions struct {
	// MaxRounds bounds the greedy hill climb (default 32).
	MaxRounds int
}

func (o StrategicOptions) withDefaults() StrategicOptions {
	if o.MaxRounds == 0 {
		o.MaxRounds = 32
	}
	return o
}

// StrategicResult is the outcome of the §IV-D alignment search.
type StrategicResult struct {
	Initial PairAnalysis `json:"initial"`
	Final   PairAnalysis `json:"final"`
	Applied []AppliedMod `json:"applied,omitempty"`
}

// StrategicModify improves a superposition pair with the Fig. 2
// modification suite. The pair is expected to differ in exactly one scan
// bit — the critical bit whose difference toggles the Trojan activation
// (§IV-D: "maintaining the status of this altered bit will be key") — and
// that bit is held fixed while every other scan bit is a candidate for a
// joint flip in both patterns. Joint flips preserve the pair's critical
// difference while eliminating, introducing or moving transitions shared
// by both patterns to increase their activity overlap.
//
// The search objective reflects the §IV-D goal of alignment: each round
// accepts the joint flip that most shrinks the pair's unique nominal
// activity (the Eq. 2 denominator — a noise-free, golden-model quantity),
// walking the pair toward maximal overlap. The returned Final state is
// the best |S-RPD| observed anywhere along that walk. Because acceptance
// is driven purely by the deterministic denominator, the climb cannot
// harvest measurement-noise maxima on a clean device beyond the handful
// of states it visits, while a genuine Trojan residual is magnified
// mechanically as the denominator falls — and states where an alignment
// move accidentally blocks the Trojan's activation path are simply not
// the maximum.
//
// Each round evaluates every candidate on the Evaluator's sweep
// session, rebased onto the current pair: a lane map [i, i, j, j, …]
// reads the 32 jointly flipped pairs AnalyzePairs would launch, measured
// and decomposed without materializing them, and the accepted flip
// advances the session incrementally. Only the accepted pair of each
// round is cloned.
func (ev *Evaluator) StrategicModify(a, b *scan.Pattern, critical CellRef, opt StrategicOptions) StrategicResult {
	opt = opt.withDefaults()
	res := StrategicResult{Initial: ev.AnalyzePair(a, b)}
	cur := res.Initial
	best := res.Initial
	// The joint-flip candidates: every stimulus bit but the critical
	// one, as indices into the session's flip list — scan cells
	// chain-major, then primary inputs.
	sweep := ev.sweep()
	cands := make([]int, 0, len(sweep.cands))
	for i, cell := range sweep.cands {
		if cell != critical {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 || opt.MaxRounds <= 0 {
		res.Final = best
		return res
	}
	curA, curB := a, b
	if err := sweep.Rebase(curA, curB); err != nil {
		panic("core: strategic sweep rebase: " + err.Error())
	}

	lanes := make([]int, 0, 64)
	for round := 0; round < opt.MaxRounds; round++ {
		curDen := cur.NominalAUnique + cur.NominalBUnique
		// Acceptance set: candidates that strictly improve alignment
		// (smaller unique nominal power). Among them, follow the one whose
		// superposition signal survives best — an alignment move that
		// happens to block the suspicious activation path would show a
		// collapsed residual and is steered around.
		bestIdx := -1
		bestMag := -1.0
		var next PairAnalysis
		for start := 0; start < len(cands); start += 32 {
			group := cands[start:min(start+32, len(cands))]
			lanes = lanes[:0]
			for _, idx := range group {
				lanes = append(lanes, idx, idx)
			}
			for i, pa := range sweep.AnalyzeLanes(nil, lanes) {
				den := pa.NominalAUnique + pa.NominalBUnique
				if den != 0 && den < curDen-1e-9 {
					if mag := abs(pa.SRPD); mag > bestMag {
						bestIdx, bestMag, next = group[i], mag, pa
					}
				}
			}
		}
		if bestIdx < 0 {
			break // no alignment improvement possible
		}
		cell := sweep.cands[bestIdx]
		res.Applied = append(res.Applied, AppliedMod{
			Cell:       cell,
			Kind:       ClassifyFlip(curA, cell.Chain, cell.Index),
			SRPDBefore: cur.SRPD,
			SRPDAfter:  next.SRPD,
		})
		curA, curB = curA.Clone(), curB.Clone()
		applyFlip(curA, cell)
		applyFlip(curB, cell)
		if err := sweep.Advance(cell, curA, curB); err != nil {
			panic("core: strategic sweep advance: " + err.Error())
		}
		next.A, next.B = curA, curB
		cur = next
		// NaN-aware max: an unstable Initial (NaN SRPD) must not pin
		// `best` forever — any stable state along the walk replaces it.
		if math.IsNaN(best.SRPD) || abs(cur.SRPD) > abs(best.SRPD) {
			best = cur
		}
	}
	res.Final = best
	return res
}
