package power

// The dense and toggle-list pricing oracles. Production code prices every
// reading through the sparse (ids, masks) kernel (NominalLanesSparse,
// MeasureLanesSparse); these straightforward forms — a dense per-gate
// lane-mask scan and per-lane toggle-list sums — are what that kernel is
// checked against, bit for bit.

import (
	"math/bits"

	"superpose/internal/logic"
)

// Nominal returns the total nominal switching energy of a toggle set —
// the PN term of Eq. 1.
func (m *Model) Nominal(toggles []int) float64 {
	var p float64
	for _, id := range toggles {
		p += m.nominal[id]
	}
	return p
}

// NominalLanes prices per-lane toggle masks in a single pass over the
// gates: out[lane] = Σ energies of gates whose mask has the lane bit set.
// masks is indexed by gate ID (typically frame1 XOR frame2 words). The
// result slice has numLanes entries.
func (m *Model) NominalLanes(masks []logic.Word, numLanes int) []float64 {
	return priceLanes(m.nominal, masks, numLanes)
}

// NominalSumSquares returns the sum of squared nominal energies of a
// toggle set. Under independent per-gate variation of relative magnitude
// σ, the standard deviation of the set's observed power is σ·√(Σe²) —
// the scale against which a differential residual is judged significant.
// The explicit conversion rounds each square before it is added, which
// forbids fusing the two into one FMA: the sum is the same on every
// GOARCH, and equals SumSquaresLanesSparse's lane sums.
func (m *Model) NominalSumSquares(toggles []int) float64 {
	var p float64
	for _, id := range toggles {
		e := m.nominal[id]
		p += float64(e * e)
	}
	return p
}

// Measure returns the observed switching power of a toggle set on this
// die — the PO term of Eq. 1. The toggle set must use this chip's
// netlist's gate IDs.
func (c *Chip) Measure(toggles []int) float64 {
	var p float64
	for _, id := range toggles {
		p += c.effective[id]
	}
	if c.noiseSigma > 0 {
		p += p * c.noiseSigma * c.noiseRNG.Norm()
	}
	return p
}

// MeasureLanes prices per-lane toggle masks in a single pass over the
// gates (see Model.NominalLanes); each lane's reading gets its own
// measurement-noise draw when noise is enabled.
func (c *Chip) MeasureLanes(masks []logic.Word, numLanes int) []float64 {
	out := priceLanes(c.effective, masks, numLanes)
	if c.noiseSigma > 0 {
		for i := range out {
			out[i] += out[i] * c.noiseSigma * c.noiseRNG.Norm()
		}
	}
	return out
}

// priceLanes accumulates per-lane energy sums by iterating only the set
// bits of each gate's lane mask.
func priceLanes(energy []float64, masks []logic.Word, numLanes int) []float64 {
	out := make([]float64, numLanes)
	var laneMask logic.Word = ^logic.Word(0)
	if numLanes < 64 {
		laneMask = logic.Word(1)<<uint(numLanes) - 1
	}
	for id, m := range masks {
		m &= laneMask
		if m == 0 {
			continue
		}
		e := energy[id]
		if m == laneMask {
			// Toggles on every lane — common for activity the whole batch
			// shares. Each lane is an independent accumulator, so adding e
			// to all of them in index order carries the same rounding as
			// the bit-iteration below.
			for i := range out {
				out[i] += e
			}
			continue
		}
		for m != 0 {
			lane := bits.TrailingZeros64(uint64(m))
			out[lane] += e
			m &= m - 1
		}
	}
	return out
}
