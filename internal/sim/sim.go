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
