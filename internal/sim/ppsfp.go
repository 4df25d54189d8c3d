package sim

import (
	"superpose/internal/logic"
	"superpose/internal/netlist"
	"superpose/internal/scratch"
)

// EngineKind names the simulation backend. PPSFP is the only one: the
// type survives solely so core.AdaptiveOptions.Engine (deprecated, a
// no-op) keeps compiling for existing callers.
type EngineKind uint8

const (
	// EngineAuto is the zero value; it means PPSFP.
	EngineAuto EngineKind = iota
	// EnginePPSFP is the compiled structure-of-arrays engine: full
	// launches run an instruction stream over a compact value plane,
	// and fault simulation propagates each fault event-driven through
	// its fanout cone instead of re-simulating the whole netlist.
	EnginePPSFP
)

// PPSFP is the 64-patterns-per-word batch launcher over the
// structure-of-arrays netlist core: the whole combinational netlist
// compiled once into a Program whose instructions address a dense,
// levelized compact value plane. One RunInto evaluates 64 independent
// patterns per logic.Word pass — bit-identical to Simulator.Run over
// the same sources, without the per-gate record loads, fanin slice
// traversals and dispatch of the generic path.
//
// A PPSFP owns its value plane and is not safe for concurrent use;
// create one per goroutine (the compiled program and SoA layout are
// shared per netlist, so construction is cheap after the first).
type PPSFP struct {
	soa   *netlist.SoA
	prog  *Program
	plane []logic.Word // compact-indexed values
}

// NewPPSFP builds the engine for n, compiling the netlist's SoA layout
// on first use.
func NewPPSFP(n *netlist.Netlist) *PPSFP {
	s := n.SoA()
	p := &PPSFP{
		soa:   s,
		plane: scratch.Words(s.NumGates),
	}
	p.prog = &Program{ops: make([]progOp, 0, s.NumGates-s.NumSources)}
	for c := int32(s.NumSources); c < int32(s.NumGates); c++ {
		p.prog.push(c, s.Typ[c], s.FaninOf(c))
	}
	return p
}

// Release returns the engine's pooled value plane. The PPSFP must not
// be used afterwards.
func (p *PPSFP) Release() {
	if p.plane == nil {
		return
	}
	scratch.PutWords(p.plane)
	p.plane = nil
}

// RunInto evaluates up to 64 patterns at once: sources maps each
// primary input and flip-flop gate ID (original IDs) to its word, dst
// receives one word per net. It is bit-identical to
// copy(dst, Simulator.Run(sources)): the compact program evaluates the
// same gates, in the same levelized order, with the same word algebra —
// only the memory layout differs. dst must hold NumGates words.
func (p *PPSFP) RunInto(sources, dst []logic.Word) {
	s := p.soa
	plane := p.plane
	for c, id := range s.Orig[:s.NumSources] {
		plane[c] = sources[id]
	}
	p.prog.Run(plane)
	for id, c := range s.Compact {
		dst[id] = plane[c]
	}
}
