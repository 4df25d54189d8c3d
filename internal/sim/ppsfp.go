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
	// EnginePPSFP is the structure-of-arrays engine: full launches
	// evaluate the compact value plane in level order, and fault
	// simulation propagates each fault event-driven through its fanout
	// cone instead of re-simulating the whole netlist.
	EnginePPSFP
)

// PPSFP is the 64-patterns-per-word batch launcher over the
// structure-of-arrays netlist core: one RunInto evaluates 64 independent
// patterns per logic.Word pass by walking the compact combinational
// range — the netlist's levelized order — through the package's one
// gate evaluator, eval, over a dense compact value plane. It is
// bit-identical to Simulator.Run over the same sources, without the
// per-gate record loads of the generic path.
//
// A PPSFP owns its value plane and is not safe for concurrent use;
// create one per goroutine (the SoA layout is shared per netlist, so
// construction is cheap after the first).
type PPSFP struct {
	soa   *netlist.SoA
	plane []logic.Word // compact-indexed values
}

// NewPPSFP builds the engine for n, compiling the netlist's SoA layout
// on first use.
func NewPPSFP(n *netlist.Netlist) *PPSFP {
	s := n.SoA()
	return &PPSFP{soa: s, plane: scratch.Words(s.NumGates)}
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
// copy(dst, Simulator.Run(sources)): the compact walk evaluates the
// same gates, in the same levelized order, with the same word algebra —
// only the memory layout differs. dst must hold NumGates words.
func (p *PPSFP) RunInto(sources, dst []logic.Word) {
	s := p.soa
	plane := p.plane
	for c, id := range s.Orig[:s.NumSources] {
		plane[c] = sources[id]
	}
	for g := int32(s.NumSources); g < int32(s.NumGates); g++ {
		plane[g] = eval(s, plane, g)
	}
	for id, c := range s.Compact {
		dst[id] = plane[c]
	}
}
