// Package power models the dynamic-power side channel: a per-cell
// switching-energy library (the stand-in for the Synopsys SAED 90nm data
// the paper uses), the nominal pre-silicon power expectation, and
// manufactured chip instances carrying inter- and intra-die process
// variation — the noise the superposition method is designed to cancel.
package power

import (
	"fmt"
	"math/bits"

	"superpose/internal/logic"
	"superpose/internal/netlist"
	"superpose/internal/stats"
)

// Library maps gate types to nominal per-switch dynamic energy, in
// arbitrary consistent units (think femtojoules per output toggle). Only
// relative magnitudes matter to the RPD/S-RPD metrics.
type Library struct {
	name   string
	energy map[netlist.GateType]float64
	perIn  map[netlist.GateType]float64 // additional energy per fanin beyond 2
}

// SAED90Like returns a library with relative magnitudes modeled on a 90nm
// standard-cell library: inverters cheapest, NAND/NOR close, AND/OR (with
// their internal output inverters) above those, XOR-class cells the most
// expensive combinational cells, and flip-flops dominating. This is the
// documented substitution for the SAED EDK90 data (DESIGN.md §2).
func SAED90Like() *Library {
	return &Library{
		name: "saed90-like",
		energy: map[netlist.GateType]float64{
			netlist.Input: 0, // PI pads; held static during launch
			netlist.DFF:   4.2,
			netlist.Buf:   0.9,
			netlist.Not:   0.7,
			netlist.And:   1.35,
			netlist.Nand:  1.00,
			netlist.Or:    1.40,
			netlist.Nor:   1.10,
			netlist.Xor:   1.95,
			netlist.Xnor:  2.05,
		},
		perIn: map[netlist.GateType]float64{
			netlist.And: 0.18, netlist.Nand: 0.15,
			netlist.Or: 0.19, netlist.Nor: 0.16,
			netlist.Xor: 0.55, netlist.Xnor: 0.55,
		},
	}
}

// Nangate45Like returns an alternative library with relative magnitudes
// modeled on a 45nm open cell library: tighter spread between simple
// gates, relatively cheaper flip-flops than the 90nm set. Running the
// experiments under both libraries checks that the method's results do
// not hinge on one particular energy table (the cross-library robustness
// ablation in EXPERIMENTS.md).
func Nangate45Like() *Library {
	return &Library{
		name: "nangate45-like",
		energy: map[netlist.GateType]float64{
			netlist.Input: 0,
			netlist.DFF:   2.6,
			netlist.Buf:   0.55,
			netlist.Not:   0.40,
			netlist.And:   0.85,
			netlist.Nand:  0.65,
			netlist.Or:    0.90,
			netlist.Nor:   0.70,
			netlist.Xor:   1.30,
			netlist.Xnor:  1.35,
		},
		perIn: map[netlist.GateType]float64{
			netlist.And: 0.12, netlist.Nand: 0.10,
			netlist.Or: 0.13, netlist.Nor: 0.11,
			netlist.Xor: 0.35, netlist.Xnor: 0.35,
		},
	}
}

// Name returns the library name.
func (l *Library) Name() string { return l.name }

// Energy returns the switching energy of a gate instance: the base energy
// of its type plus the per-extra-fanin adder for wide gates.
func (l *Library) Energy(typ netlist.GateType, fanin int) float64 {
	e := l.energy[typ]
	if extra := fanin - 2; extra > 0 {
		e += float64(extra) * l.perIn[typ]
	}
	return e
}

// Model is the defender's pre-silicon power expectation for one netlist:
// nominal per-gate energies with no process variation.
type Model struct {
	n       *netlist.Netlist
	nominal []float64
	squares []float64 // float64(e*e) per gate, for SumSquaresLanesSparse
}

// NewModel builds the nominal model of n under lib.
func NewModel(n *netlist.Netlist, lib *Library) *Model {
	m := &Model{
		n:       n,
		nominal: make([]float64, n.NumGates()),
		squares: make([]float64, n.NumGates()),
	}
	for id, g := range n.Gates {
		e := lib.Energy(g.Type, len(g.Fanin))
		m.nominal[id] = e
		m.squares[id] = float64(e * e)
	}
	return m
}

// Netlist returns the modeled netlist.
func (m *Model) Netlist() *netlist.Netlist { return m.n }

// NominalOf returns the nominal switching energy of gate id.
func (m *Model) NominalOf(id int) float64 { return m.nominal[id] }

// NominalLanesSparse prices a sparse per-lane toggle representation —
// the PN term of Eq. 1 for up to 64 lanes at once: ids lists, in
// ascending gate-ID order, every gate whose lane mask may be nonzero;
// masks[k] is the lane mask of ids[k] (lanes at or above numLanes are
// ignored). Each lane's sum adds its gates' energies in ascending gate-ID
// order, so it is bit-identical to summing that lane's toggle list — the
// floating-point contract every reading relies on, whether the encoding
// came from a full launch or from the single-flip sweep engine. dst is
// reused when large enough (zeroed first); pass nil to allocate.
func (m *Model) NominalLanesSparse(ids []int, masks []logic.Word, numLanes int, dst []float64) []float64 {
	return priceSparse(m.nominal, ids, masks, numLanes, dst)
}

// SumSquaresLanesSparse is NominalLanesSparse over the squared nominal
// energies: out[lane] is Σe² over that lane's toggle set. Under
// independent per-gate variation of relative magnitude σ, the standard
// deviation of the set's observed power is σ·√(Σe²) — the scale against
// which a differential residual is judged significant. Each square is
// rounded to float64 before it is added (see NewModel), so no FMA fuses
// them and the sums are the same on every GOARCH.
func (m *Model) SumSquaresLanesSparse(ids []int, masks []logic.Word, numLanes int, dst []float64) []float64 {
	return priceSparse(m.squares, ids, masks, numLanes, dst)
}

// Variation parameterizes the manufacturing-process noise. Both sigmas are
// relative (fraction of nominal energy): SigmaIntra=0.0833 means the
// per-gate 3σ spread is 25%, the most extreme case of Table II.
type Variation struct {
	SigmaInter float64 // whole-chip energy scaling spread
	SigmaIntra float64 // independent per-gate spread
}

// ThreeSigmaIntra builds a Variation from the paper's "3σ_intra = ς"
// convention, with inter-die 3σ three times larger (inter-die variation is
// typically the larger component; the method is insensitive to it by
// construction, which the tests verify).
func ThreeSigmaIntra(varsigma float64) Variation {
	return Variation{SigmaInter: varsigma, SigmaIntra: varsigma / 3}
}

// Chip is one manufactured IC: the physical netlist (possibly carrying a
// Trojan the defender cannot see) with fixed per-gate process-variation
// factors and an optional measurement-noise level.
type Chip struct {
	n          *netlist.Netlist
	effective  []float64 // per-gate energy after PV
	interScale float64
	noiseSigma float64 // relative measurement noise per reading
	noiseRNG   *stats.RNG
}

// Manufacture creates a chip instance of n (the *physical* netlist — use
// the Trojan-inserted netlist to model an attacked part). The library
// provides nominal energies; v and seed determine this die's variation
// draw. Factors are clamped to stay positive under extreme sigmas.
func Manufacture(n *netlist.Netlist, lib *Library, v Variation, seed uint64) *Chip {
	rng := stats.NewRNG(seed)
	inter := 1 + v.SigmaInter*rng.Norm()
	if inter < 0.05 {
		inter = 0.05
	}
	c := &Chip{
		n:          n,
		effective:  make([]float64, n.NumGates()),
		interScale: inter,
		noiseRNG:   rng.Fork(),
	}
	for id, g := range n.Gates {
		intra := 1 + v.SigmaIntra*rng.Norm()
		if intra < 0.05 {
			intra = 0.05
		}
		c.effective[id] = lib.Energy(g.Type, len(g.Fanin)) * inter * intra
	}
	return c
}

// SetMeasurementNoise enables additive Gaussian noise on every lane
// reading, with standard deviation sigma·reading. Zero (the default)
// disables it.
func (c *Chip) SetMeasurementNoise(sigma float64) {
	if sigma < 0 {
		panic(fmt.Sprintf("power: negative measurement noise %v", sigma))
	}
	c.noiseSigma = sigma
}

// NoiseSigma returns the configured relative measurement-noise level
// (zero when disabled). The acquisition layer uses it to skip redundant
// repeat measurements on a noiseless chip.
func (c *Chip) NoiseSigma() float64 { return c.noiseSigma }

// Netlist returns the chip's physical netlist.
func (c *Chip) Netlist() *netlist.Netlist { return c.n }

// InterScale returns this die's inter-die energy scale factor (for tests
// and diagnostics; a real defender cannot observe it directly).
func (c *Chip) InterScale() float64 { return c.interScale }

// EffectiveOf returns the post-variation energy of gate id (diagnostics).
func (c *Chip) EffectiveOf(id int) float64 { return c.effective[id] }

// MeasureLanesSparse prices a sparse toggle representation on this die
// — the PO term of Eq. 1 (see Model.NominalLanesSparse for the encoding
// and the bit-identity contract). Exactly numLanes measurement-noise
// draws are taken, in lane order, so every reading of a lane set
// consumes the chip's noise stream identically.
func (c *Chip) MeasureLanesSparse(ids []int, masks []logic.Word, numLanes int, dst []float64) []float64 {
	out := priceSparse(c.effective, ids, masks, numLanes, dst)
	if c.noiseSigma > 0 {
		for i := range out {
			out[i] += out[i] * c.noiseSigma * c.noiseRNG.Norm()
		}
	}
	return out
}

// priceLanesSparse accumulates per-lane energy sums over a sparse (ids,
// masks) toggle encoding, iterating only the set bits of each listed
// gate's lane mask, in ascending gate-ID order per lane.
func priceLanesSparse(energy []float64, ids []int, masks []logic.Word, numLanes int, dst []float64) []float64 {
	if cap(dst) < numLanes {
		dst = make([]float64, numLanes)
	}
	dst = dst[:numLanes]
	for i := range dst {
		dst[i] = 0
	}
	var laneMask logic.Word = ^logic.Word(0)
	if numLanes < 64 {
		laneMask = logic.Word(1)<<uint(numLanes) - 1
	}
	for k, id := range ids {
		m := masks[k] & laneMask
		if m == 0 {
			continue
		}
		e := energy[id]
		if m == laneMask {
			// All-lane entries dominate sweep encodings (every base toggle
			// outside the flip cones); adding to the independent per-lane
			// accumulators in index order keeps the rounding identical.
			for i := range dst {
				dst[i] += e
			}
			continue
		}
		for m != 0 {
			lane := bits.TrailingZeros64(uint64(m))
			dst[lane] += e
			m &= m - 1
		}
	}
	return dst
}
