// Package netlist provides the gate-level netlist database used by every
// stage of the toolchain: parsing, simulation, ATPG, Trojan insertion and
// the superposition analysis itself.
//
// The model is the classic single-output-gate network of the ISCAS
// benchmarks: every gate drives exactly one net, so gates and nets share
// one identifier space. Primary inputs and D flip-flops are source gates
// with no combinational fanin evaluation; in the full-scan methodology the
// flip-flops double as scan cells, making their outputs pseudo-primary
// inputs and their D pins pseudo-primary outputs.
package netlist

import (
	"fmt"
	"sort"
	"sync"
)

// GateType enumerates the cell types of the netlist.
type GateType uint8

// The supported cell types. Input and DFF are value sources for
// combinational evaluation; everything else computes a boolean function of
// its fanins.
const (
	Input GateType = iota
	DFF
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	numGateTypes
)

var gateTypeNames = [...]string{
	Input: "INPUT", DFF: "DFF", Buf: "BUF", Not: "NOT",
	And: "AND", Nand: "NAND", Or: "OR", Nor: "NOR", Xor: "XOR", Xnor: "XNOR",
}

// String returns the .bench-style upper-case name of the gate type.
func (t GateType) String() string {
	if int(t) < len(gateTypeNames) {
		return gateTypeNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// ParseGateType converts a .bench-style type name (case-insensitive callers
// should upper-case first) to a GateType.
func ParseGateType(s string) (GateType, bool) {
	for t, name := range gateTypeNames {
		if name == s {
			return GateType(t), true
		}
	}
	return 0, false
}

// IsSource reports whether the gate type is a value source (no
// combinational evaluation): primary inputs and scan flip-flops.
func (t GateType) IsSource() bool { return t == Input || t == DFF }

// MinFanin returns the minimum legal fanin count for the type.
func (t GateType) MinFanin() int {
	switch t {
	case Input:
		return 0
	case DFF, Buf, Not:
		return 1
	default:
		return 2
	}
}

// MaxFanin returns the maximum legal fanin count (0 = unbounded).
func (t GateType) MaxFanin() int {
	switch t {
	case Input:
		return 0
	case DFF, Buf, Not:
		return 1
	default:
		return 0 // AND/OR/... are n-ary in .bench
	}
}

// Gate is one cell of the netlist. Its output net shares the gate's ID.
type Gate struct {
	Type  GateType
	Fanin []int // driving gate/net IDs; for DFF, Fanin[0] is the D pin
}

// Netlist is an immutable-after-Freeze gate-level circuit.
//
// Construction goes through Builder (which the parsers and generators
// drive too); afterwards the structure is treated as read-only by the
// rest of the toolchain, so a single Netlist may be shared freely
// between goroutines.
type Netlist struct {
	Name string

	Gates []Gate   // index = gate/net ID
	Names []string // net names, parallel to Gates

	PIs []int // primary input gate IDs, in declaration order
	POs []int // primary output net IDs, in declaration order
	FFs []int // all flip-flop gate IDs, in declaration order

	// NoScan marks flip-flops excluded from the scan chains (e.g. the
	// hidden state elements of a sequential Trojan). Indexed by gate ID;
	// nil when every flip-flop is scannable.
	NoScan []bool

	byName   map[string]int
	nameOnce sync.Once // guards the lazy byName build
	fanouts  [][]int   // computed by Freeze
	order    []int     // topological order of non-source gates
	level    []int     // logic level per gate (sources are level 0)
	frozen   bool

	// Lazily compiled structure-of-arrays layout (see SoA), shared by
	// every PPSFP engine over this netlist.
	soaOnce sync.Once
	soa     *SoA
}

// NumGates returns the total number of gates (including sources).
func (n *Netlist) NumGates() int { return len(n.Gates) }

// ScanFFs returns the flip-flops available to the scan infrastructure:
// FFs minus the NoScan-marked ones. With no markings it returns FFs
// itself (the common case allocates nothing).
func (n *Netlist) ScanFFs() []int {
	if n.NoScan == nil {
		return n.FFs
	}
	var out []int
	for _, ff := range n.FFs {
		if !n.NoScan[ff] {
			out = append(out, ff)
		}
	}
	return out
}

// IsNoScan reports whether flip-flop id is excluded from scan.
func (n *Netlist) IsNoScan(id int) bool {
	return n.NoScan != nil && id < len(n.NoScan) && n.NoScan[id]
}

// NumCombinational returns the number of combinational (non-source) gates.
func (n *Netlist) NumCombinational() int { return len(n.order) }

// GateID looks up a gate by net name. The name index is built lazily on
// first use: Builder hands netlists over without one, so pure
// build/simulate workloads never pay for a million-entry index.
func (n *Netlist) GateID(name string) (int, bool) {
	n.nameOnce.Do(func() {
		m := make(map[string]int, len(n.Names))
		for id, nm := range n.Names {
			m[nm] = id
		}
		n.byName = m
	})
	id, ok := n.byName[name]
	return id, ok
}

// NameOf returns the net name for a gate ID.
func (n *Netlist) NameOf(id int) string { return n.Names[id] }

// Fanouts returns the gate IDs reading net id. The returned slice is owned
// by the netlist and must not be modified.
func (n *Netlist) Fanouts(id int) []int { return n.fanouts[id] }

// TopoOrder returns the combinational gates in topological order. The
// returned slice is owned by the netlist and must not be modified.
func (n *Netlist) TopoOrder() []int { return n.order }

// Level returns the logic level of gate id: 0 for sources, 1 + max fanin
// level otherwise.
func (n *Netlist) Level(id int) int { return n.level[id] }

// Depth returns the maximum logic level of the circuit.
func (n *Netlist) Depth() int {
	d := 0
	for _, l := range n.level {
		if l > d {
			d = l
		}
	}
	return d
}

// IsPO reports whether net id is a primary output.
func (n *Netlist) IsPO(id int) bool {
	for _, po := range n.POs {
		if po == id {
			return true
		}
	}
	return false
}

// Freeze validates the netlist, computes fanouts, levelizes the
// combinational gates and locks the structure. It must be called exactly
// once after construction; Builder.Build does so automatically.
func (n *Netlist) Freeze() error {
	if n.frozen {
		return fmt.Errorf("netlist %q: already frozen", n.Name)
	}
	if err := n.validate(); err != nil {
		return err
	}
	n.computeFanouts()
	if err := n.levelize(); err != nil {
		return err
	}
	n.frozen = true
	return nil
}

func (n *Netlist) validate() error {
	if len(n.Gates) != len(n.Names) {
		return fmt.Errorf("netlist %q: %d gates but %d names", n.Name, len(n.Gates), len(n.Names))
	}
	for id, g := range n.Gates {
		if g.Type >= numGateTypes {
			return fmt.Errorf("netlist %q: gate %s: invalid type %d", n.Name, n.Names[id], g.Type)
		}
		if min := g.Type.MinFanin(); len(g.Fanin) < min {
			return fmt.Errorf("netlist %q: gate %s (%s): %d fanins, need at least %d",
				n.Name, n.Names[id], g.Type, len(g.Fanin), min)
		}
		if max := g.Type.MaxFanin(); max > 0 && len(g.Fanin) > max {
			return fmt.Errorf("netlist %q: gate %s (%s): %d fanins, at most %d allowed",
				n.Name, n.Names[id], g.Type, len(g.Fanin), max)
		}
		for _, f := range g.Fanin {
			if f < 0 || f >= len(n.Gates) {
				return fmt.Errorf("netlist %q: gate %s: fanin %d out of range", n.Name, n.Names[id], f)
			}
		}
	}
	for _, po := range n.POs {
		if po < 0 || po >= len(n.Gates) {
			return fmt.Errorf("netlist %q: primary output %d out of range", n.Name, po)
		}
	}
	return nil
}

func (n *Netlist) computeFanouts() {
	counts := make([]int, len(n.Gates))
	for _, g := range n.Gates {
		for _, f := range g.Fanin {
			counts[f]++
		}
	}
	// One backing array for all fanout lists keeps them cache-friendly.
	flat := make([]int, sum(counts))
	n.fanouts = make([][]int, len(n.Gates))
	pos := 0
	for id, c := range counts {
		n.fanouts[id] = flat[pos : pos : pos+c]
		pos += c
	}
	for id, g := range n.Gates {
		for _, f := range g.Fanin {
			n.fanouts[f] = append(n.fanouts[f], id)
		}
	}
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// levelize computes a topological order of the combinational gates with
// Kahn's algorithm over the combinational edges (DFF D-pins are sinks, DFF
// outputs are sources) and assigns logic levels. A leftover gate indicates
// a combinational cycle.
func (n *Netlist) levelize() error {
	indeg := make([]int, len(n.Gates))
	for id, g := range n.Gates {
		if g.Type.IsSource() {
			continue
		}
		indeg[id] = 0
		for _, f := range g.Fanin {
			if !n.Gates[f].Type.IsSource() {
				indeg[id]++
			}
		}
	}

	n.level = make([]int, len(n.Gates))
	queue := make([]int, 0, len(n.Gates))
	for id, g := range n.Gates {
		if !g.Type.IsSource() && indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	sort.Ints(queue) // deterministic order

	n.order = make([]int, 0, len(n.Gates))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		n.order = append(n.order, id)

		lvl := 0
		for _, f := range n.Gates[id].Fanin {
			if n.level[f] >= lvl {
				lvl = n.level[f] + 1
			}
		}
		if lvl == 0 {
			lvl = 1 // all fanins are sources
		}
		n.level[id] = lvl

		for _, fo := range n.fanouts[id] {
			if n.Gates[fo].Type.IsSource() {
				continue
			}
			indeg[fo]--
			if indeg[fo] == 0 {
				queue = append(queue, fo)
			}
		}
	}

	want := 0
	for _, g := range n.Gates {
		if !g.Type.IsSource() {
			want++
		}
	}
	if len(n.order) != want {
		return fmt.Errorf("netlist %q: combinational cycle detected (%d of %d gates ordered)",
			n.Name, len(n.order), want)
	}
	return nil
}

// Stats summarizes a netlist for reporting.
type Stats struct {
	Name          string
	Gates         int // total gates including PIs and FFs
	Combinational int
	PIs, POs, FFs int
	Depth         int
	ByType        map[GateType]int
}

// ComputeStats gathers summary statistics.
func (n *Netlist) ComputeStats() Stats {
	s := Stats{
		Name:          n.Name,
		Gates:         len(n.Gates),
		Combinational: len(n.order),
		PIs:           len(n.PIs),
		POs:           len(n.POs),
		FFs:           len(n.FFs),
		Depth:         n.Depth(),
		ByType:        make(map[GateType]int),
	}
	for _, g := range n.Gates {
		s.ByType[g.Type]++
	}
	return s
}

// String renders the stats in a compact single line.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d gates (%d comb), %d PI, %d PO, %d FF, depth %d",
		s.Name, s.Gates, s.Combinational, s.PIs, s.POs, s.FFs, s.Depth)
}
