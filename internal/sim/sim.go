// Package sim provides levelized, 64-way pattern-parallel two-valued logic
// simulation of full-scan netlists, plus the derived analyses the
// superposition flow needs: toggle sets between two evaluations (the launch
// activity of a transition test) and Monte-Carlo signal probabilities (the
// rare-net analysis behind Trojan trigger selection).
package sim

import (
	"fmt"
	"math/bits"

	"superpose/internal/logic"
	"superpose/internal/netlist"
	"superpose/internal/scratch"
	"superpose/internal/stats"
)

// Simulator evaluates the combinational logic of one netlist. A Simulator
// holds per-net value storage and is not safe for concurrent use; create
// one per goroutine (construction is cheap).
type Simulator struct {
	n      *netlist.Netlist
	values []logic.Word
}

// New returns a Simulator for n. The per-net value array comes from a
// shared size-class pool; Release returns it when the simulator is done.
func New(n *netlist.Netlist) *Simulator {
	return &Simulator{n: n, values: scratch.Words(n.NumGates())}
}

// Release returns the simulator's pooled value array. The Simulator
// must not be used afterwards.
func (s *Simulator) Release() {
	if s.values == nil {
		return
	}
	scratch.PutWords(s.values)
	s.values = nil
}

// Netlist returns the simulated netlist.
func (s *Simulator) Netlist() *netlist.Netlist { return s.n }

// Run evaluates the combinational logic for up to 64 patterns at once.
// sources maps each primary input and flip-flop gate ID to its word; all
// other entries are ignored. The returned slice holds one word per net and
// is owned by the Simulator: it is valid until the next Run.
func (s *Simulator) Run(sources []logic.Word) []logic.Word {
	n := s.n
	for _, pi := range n.PIs {
		s.values[pi] = sources[pi]
	}
	for _, ff := range n.FFs {
		s.values[ff] = sources[ff]
	}
	for _, id := range n.TopoOrder() {
		s.values[id] = evalGate(n, id, s.values)
	}
	return s.values
}

// evalGate computes the word of combinational gate id from the values of
// its fanins in the given value array.
func evalGate(n *netlist.Netlist, id int, values []logic.Word) logic.Word {
	g := &n.Gates[id]
	switch g.Type {
	case netlist.Buf:
		return values[g.Fanin[0]]
	case netlist.Not:
		return ^values[g.Fanin[0]]
	case netlist.And, netlist.Nand:
		w := logic.AllOne
		for _, f := range g.Fanin {
			w &= values[f]
		}
		if g.Type == netlist.Nand {
			w = ^w
		}
		return w
	case netlist.Or, netlist.Nor:
		w := logic.AllZero
		for _, f := range g.Fanin {
			w |= values[f]
		}
		if g.Type == netlist.Nor {
			w = ^w
		}
		return w
	case netlist.Xor, netlist.Xnor:
		w := logic.AllZero
		for _, f := range g.Fanin {
			w ^= values[f]
		}
		if g.Type == netlist.Xnor {
			w = ^w
		}
		return w
	default:
		panic(fmt.Sprintf("sim: unexpected gate type %v in topo order", g.Type))
	}
}

// Program is a compiled evaluation sequence: one fixed (levelized) gate
// order flattened into an instruction stream with inline fanin indices.
// Evaluating through a Program is semantically identical to applying
// evalGate over the same order; it exists because the PPSFP engine runs
// the whole netlist once per launch, where the per-gate overhead of the
// generic path (gate-record load, fanin slice traversal, call dispatch)
// dominates. Two-input gates — the bulk of a mapped netlist — execute as
// single inline operations; wider gates read their fanins from a shared
// side table.
type Program struct {
	ops []progOp
	ext []int32
}

type progOp struct {
	id, f0, f1 int32 // target; inline fanins, or ext offset/length
	op         uint8
}

const (
	opBuf uint8 = iota
	opNot
	opAnd2
	opNand2
	opOr2
	opNor2
	opXor2
	opXnor2
	opAndN // f0 = ext offset, f1 = fanin count
	opNandN
	opOrN
	opNorN
	opXorN
	opXnorN
)

// push appends one gate to the compiled stream. The target and fanin
// indices address the compact SoA value plane of the PPSFP engine's
// whole-netlist program.
func (p *Program) push(id int32, typ netlist.GateType, fanin []int32) {
	o := progOp{id: id}
	var two, wide uint8
	switch typ {
	case netlist.Buf:
		o.op, o.f0 = opBuf, fanin[0]
		p.ops = append(p.ops, o)
		return
	case netlist.Not:
		o.op, o.f0 = opNot, fanin[0]
		p.ops = append(p.ops, o)
		return
	case netlist.And:
		two, wide = opAnd2, opAndN
	case netlist.Nand:
		two, wide = opNand2, opNandN
	case netlist.Or:
		two, wide = opOr2, opOrN
	case netlist.Nor:
		two, wide = opNor2, opNorN
	case netlist.Xor:
		two, wide = opXor2, opXorN
	case netlist.Xnor:
		two, wide = opXnor2, opXnorN
	default:
		panic(fmt.Sprintf("sim: unexpected gate type %v in compiled order", typ))
	}
	if len(fanin) == 2 {
		o.op, o.f0, o.f1 = two, fanin[0], fanin[1]
	} else {
		o.op, o.f0, o.f1 = wide, int32(len(p.ext)), int32(len(fanin))
		p.ext = append(p.ext, fanin...)
	}
	p.ops = append(p.ops, o)
}

// Run evaluates the compiled sequence over the value array in place —
// bit-identical to applying evalGate over the order the Program was
// compiled from.
func (p *Program) Run(values []logic.Word) {
	ext := p.ext
	for i := range p.ops {
		o := &p.ops[i]
		switch o.op {
		case opAnd2:
			values[o.id] = values[o.f0] & values[o.f1]
		case opNand2:
			values[o.id] = ^(values[o.f0] & values[o.f1])
		case opOr2:
			values[o.id] = values[o.f0] | values[o.f1]
		case opNor2:
			values[o.id] = ^(values[o.f0] | values[o.f1])
		case opXor2:
			values[o.id] = values[o.f0] ^ values[o.f1]
		case opXnor2:
			values[o.id] = ^(values[o.f0] ^ values[o.f1])
		case opBuf:
			values[o.id] = values[o.f0]
		case opNot:
			values[o.id] = ^values[o.f0]
		default:
			w := logic.AllZero
			neg := false
			switch o.op {
			case opNandN:
				neg = true
				fallthrough
			case opAndN:
				w = logic.AllOne
				for _, f := range ext[o.f0 : o.f0+o.f1] {
					w &= values[f]
				}
			case opNorN:
				neg = true
				fallthrough
			case opOrN:
				for _, f := range ext[o.f0 : o.f0+o.f1] {
					w |= values[f]
				}
			case opXnorN:
				neg = true
				fallthrough
			case opXorN:
				for _, f := range ext[o.f0 : o.f0+o.f1] {
					w ^= values[f]
				}
			}
			if neg {
				w = ^w
			}
			values[o.id] = w
		}
	}
}

// RunForced evaluates like Run but forces net `forced` to the word `val`
// regardless of its driver — the faulty-machine evaluation used by fault
// simulation (a transition fault behaves as the net stuck at its initial
// value in the launch-to-capture frame). Forcing works for source and
// combinational nets alike.
func (s *Simulator) RunForced(sources []logic.Word, forced int, val logic.Word) []logic.Word {
	n := s.n
	for _, pi := range n.PIs {
		s.values[pi] = sources[pi]
	}
	for _, ff := range n.FFs {
		s.values[ff] = sources[ff]
	}
	if n.Gates[forced].Type.IsSource() {
		s.values[forced] = val
	}
	for _, id := range n.TopoOrder() {
		if id == forced {
			s.values[id] = val
			continue
		}
		s.values[id] = evalGate(n, id, s.values)
	}
	return s.values
}

// Snapshot copies the current value array (e.g. to keep a launch frame
// while simulating the capture frame).
func (s *Simulator) Snapshot() []logic.Word {
	return append([]logic.Word(nil), s.values...)
}

// SourceWords allocates a source array sized for the netlist.
func (s *Simulator) SourceWords() []logic.Word {
	return make([]logic.Word, s.n.NumGates())
}

// ToggleSet returns the IDs of all gates (including scan cells and primary
// inputs) whose value differs between the two evaluations a and b at
// pattern lane `bit`. This is the switching-activity set of a launch.
func ToggleSet(a, b []logic.Word, bit uint) []int {
	mask := logic.Word(1) << bit
	n := 0
	for id := range a {
		if (a[id]^b[id])&mask != 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for id := range a {
		if (a[id]^b[id])&mask != 0 {
			out = append(out, id)
		}
	}
	return out
}

// AppendToggled appends the sparse toggle encoding of two evaluations a
// and b to ids and masks: every net whose value differs between them in
// any lane, in ascending ID order, with its lane mask a[id] XOR b[id].
// This is the (ids, masks) encoding the power package prices.
func AppendToggled(a, b []logic.Word, ids []int, masks []logic.Word) ([]int, []logic.Word) {
	for id := range a {
		if m := a[id] ^ b[id]; m != 0 {
			ids = append(ids, id)
			masks = append(masks, m)
		}
	}
	return ids, masks
}

// SignalProbabilities estimates, for every net, the probability that the
// net evaluates to 1 under uniformly random primary-input and scan-cell
// values. numPatterns is rounded up to a multiple of 64. The result feeds
// the rare-net analysis used for Trojan trigger placement.
func SignalProbabilities(n *netlist.Netlist, numPatterns int, seed uint64) []float64 {
	if numPatterns <= 0 {
		numPatterns = 64
	}
	words := (numPatterns + 63) / 64
	rng := stats.NewRNG(seed)
	pp := NewPPSFP(n)
	defer pp.Release()
	sources := make([]logic.Word, n.NumGates())
	vals := make([]logic.Word, n.NumGates())
	ones := make([]int, n.NumGates())
	for w := 0; w < words; w++ {
		for _, pi := range n.PIs {
			sources[pi] = logic.Word(rng.Uint64())
		}
		for _, ff := range n.FFs {
			sources[ff] = logic.Word(rng.Uint64())
		}
		pp.RunInto(sources, vals)
		for id, v := range vals {
			ones[id] += popcount(v)
		}
	}
	total := float64(words * 64)
	probs := make([]float64, n.NumGates())
	for id, c := range ones {
		probs[id] = float64(c) / total
	}
	return probs
}

func popcount(w logic.Word) int { return bits.OnesCount64(uint64(w)) }
