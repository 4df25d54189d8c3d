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

// FaultProp is the single-fault propagation half of PPSFP fault
// simulation: given the fault-free capture frame of a 64-pattern batch,
// it computes one fault's faulty-machine deviation by propagating the
// forced value event-driven through the fanout cone — level-bucketed
// worklists over the SoA layout — instead of re-simulating the whole
// netlist. Gates the fault effect never reaches keep their fault-free
// words by construction, so the detection mask is bit-identical to the
// full re-simulation of the netlist through Simulator.RunForced.
//
// A FaultProp owns its overlay state and is not safe for concurrent
// use; fault-simulation workers each hold their own.
type FaultProp struct {
	soa   *netlist.SoA
	isObs []bool // compact-indexed observation points (POs + FF D pins)

	base []logic.Word // compact fault-free capture-frame values

	// Epoch-marked overlay: val[c] is live iff mark[c] == epoch, so
	// propagations never clear state. sched guards bucket membership
	// the same way.
	val     []logic.Word
	mark    []uint32
	sched   []uint32
	epoch   uint32
	buckets [][]int32 // per-level worklists, drained low to high
}

// NewFaultProp builds a propagator for n. obs lists the observation
// nets (original gate IDs — primary outputs and scan-cell D pins) a
// fault must reach to be detected.
func NewFaultProp(n *netlist.Netlist, obs []int) *FaultProp {
	s := n.SoA()
	fp := &FaultProp{
		soa:     s,
		isObs:   make([]bool, s.NumGates),
		base:    make([]logic.Word, s.NumGates),
		val:     make([]logic.Word, s.NumGates),
		mark:    make([]uint32, s.NumGates),
		sched:   make([]uint32, s.NumGates),
		buckets: make([][]int32, s.MaxLevel+1),
	}
	for _, o := range obs {
		fp.isObs[s.Compact[o]] = true
	}
	return fp
}

// SetBase loads the fault-free capture-frame values (original-indexed,
// one word per net — e.g. the good-machine frame 2 of a batch launch)
// the subsequent Propagate calls deviate from.
func (fp *FaultProp) SetBase(values []logic.Word) {
	for c, id := range fp.soa.Orig {
		fp.base[c] = values[id]
	}
}

// Propagate forces net (original ID) to the word forced and returns the
// lanes — restricted to launch — on which the deviation reaches an
// observation point: exactly detectOne's diff&launch over a full
// faulty-machine re-simulation, including its early exit once every
// launch lane has detected.
func (fp *FaultProp) Propagate(net int, forced, launch logic.Word) logic.Word {
	s := fp.soa
	site := s.Compact[net]
	delta := fp.base[site] ^ forced
	if delta == 0 {
		// The forced value equals the fault-free one on every lane: the
		// faulty machine is the good machine.
		return 0
	}
	fp.epoch++
	if fp.epoch == 0 { // uint32 wraparound: restart the marking scheme
		clear(fp.mark)
		clear(fp.sched)
		fp.epoch = 1
	}
	epoch := fp.epoch
	fp.val[site] = forced
	fp.mark[site] = epoch

	var diff logic.Word
	if fp.isObs[site] {
		diff = delta
		if diff&launch == launch {
			return launch
		}
	}

	lo, hi := s.MaxLevel+1, 0
	for _, g := range s.FanoutOf(site) {
		if fp.sched[g] != epoch {
			fp.sched[g] = epoch
			l := int(s.Level[g])
			fp.buckets[l] = append(fp.buckets[l], g)
			if l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
	}
	for l := lo; l <= hi; l++ {
		// A gate's fanouts sit at strictly higher levels, so the bucket
		// being drained never grows under its own iteration.
		for _, g := range fp.buckets[l] {
			nv := fp.eval(g, epoch)
			if nv == fp.base[g] {
				continue // deviation masked off at this gate
			}
			fp.val[g] = nv
			fp.mark[g] = epoch
			if fp.isObs[g] {
				diff |= nv ^ fp.base[g]
				if diff&launch == launch {
					for k := l; k <= hi; k++ {
						fp.buckets[k] = fp.buckets[k][:0]
					}
					return launch
				}
			}
			for _, fo := range s.FanoutOf(g) {
				if fp.sched[fo] != epoch {
					fp.sched[fo] = epoch
					fl := int(s.Level[fo])
					fp.buckets[fl] = append(fp.buckets[fl], fo)
					if fl > hi {
						hi = fl
					}
				}
			}
		}
		fp.buckets[l] = fp.buckets[l][:0]
	}
	return diff & launch
}

// eval recomputes compact gate g, reading overlay values where the
// current propagation marked them and fault-free base values elsewhere
// — the same word algebra as evalGate, over the SoA layout.
func (fp *FaultProp) eval(g int32, epoch uint32) logic.Word {
	s := fp.soa
	read := func(f int32) logic.Word {
		if fp.mark[f] == epoch {
			return fp.val[f]
		}
		return fp.base[f]
	}
	fanin := s.FaninOf(g)
	switch s.Typ[g] {
	case netlist.Buf:
		return read(fanin[0])
	case netlist.Not:
		return ^read(fanin[0])
	case netlist.And, netlist.Nand:
		w := logic.AllOne
		for _, f := range fanin {
			w &= read(f)
		}
		if s.Typ[g] == netlist.Nand {
			w = ^w
		}
		return w
	case netlist.Or, netlist.Nor:
		w := logic.AllZero
		for _, f := range fanin {
			w |= read(f)
		}
		if s.Typ[g] == netlist.Nor {
			w = ^w
		}
		return w
	case netlist.Xor, netlist.Xnor:
		w := logic.AllZero
		for _, f := range fanin {
			w ^= read(f)
		}
		if s.Typ[g] == netlist.Xnor {
			w = ^w
		}
		return w
	default:
		panic("sim: FaultProp.eval on a source gate")
	}
}
