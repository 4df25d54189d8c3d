package netlist

import "fmt"

// MapBuilder is the map-based netlist builder that Builder replaced: one
// Fanin slice per gate and its own name map. It is kept as the oracle
// the builder equivalence suite and FuzzBuilder hold Builder to,
// ID-for-ID. Only its names changed, Build no longer hands its name map
// to the netlist (Netlist.GateID always builds its own), and Intern
// exposes the first-mention rule to the token-API replays. It is
// exported so the external test package can drive it.
type MapBuilder struct {
	name   string
	gates  []Gate
	names  []string
	byName map[string]int
	pis    []int
	pos    []string // PO net names, resolved at Build
	ffs    []int
	noScan []int // flip-flop IDs excluded from scan

	defined []bool // whether the net's driver has been declared
}

// NewMapBuilder returns a MapBuilder for a netlist with the given name.
func NewMapBuilder(name string) *MapBuilder {
	return &MapBuilder{
		name:   name,
		byName: make(map[string]int),
	}
}

// intern returns the ID for a net name, creating a placeholder if needed.
func (b *MapBuilder) intern(name string) int {
	if id, ok := b.byName[name]; ok {
		return id
	}
	id := len(b.gates)
	b.gates = append(b.gates, Gate{})
	b.names = append(b.names, name)
	b.defined = append(b.defined, false)
	b.byName[name] = id
	return id
}

// Intern is intern for the external tests: it mentions a net without
// defining it, the oracle's counterpart of Builder.InternString.
func (b *MapBuilder) Intern(name string) int { return b.intern(name) }

// AddInput declares a primary input.
func (b *MapBuilder) AddInput(name string) (int, error) {
	id, err := b.define(name, Input, nil)
	if err != nil {
		return 0, err
	}
	b.pis = append(b.pis, id)
	return id, nil
}

// AddDFF declares a flip-flop (scan cell) whose D pin is the named net.
func (b *MapBuilder) AddDFF(name, d string) (int, error) {
	id, err := b.define(name, DFF, []string{d})
	if err != nil {
		return 0, err
	}
	b.ffs = append(b.ffs, id)
	return id, nil
}

// AddNonScanDFF declares a flip-flop excluded from the scan chains — the
// hidden state an attacker's sequential trigger would use (scan access to
// the counter would expose it immediately).
func (b *MapBuilder) AddNonScanDFF(name, d string) (int, error) {
	id, err := b.AddDFF(name, d)
	if err != nil {
		return 0, err
	}
	b.noScan = append(b.noScan, id)
	return id, nil
}

// AddGate declares a combinational gate computing typ over the fanin nets.
func (b *MapBuilder) AddGate(name string, typ GateType, fanins ...string) (int, error) {
	if typ.IsSource() {
		return 0, fmt.Errorf("builder %q: use AddInput/AddDFF for %s", b.name, typ)
	}
	return b.define(name, typ, fanins)
}

func (b *MapBuilder) define(name string, typ GateType, fanins []string) (int, error) {
	id := b.intern(name)
	if b.defined[id] {
		return 0, fmt.Errorf("builder %q: net %q defined twice", b.name, name)
	}
	b.defined[id] = true
	g := Gate{Type: typ, Fanin: make([]int, len(fanins))}
	for i, f := range fanins {
		g.Fanin[i] = b.intern(f)
	}
	b.gates[id] = g
	return id, nil
}

// MarkOutput declares the named net a primary output. The net may be
// declared later; resolution happens at Build.
func (b *MapBuilder) MarkOutput(name string) {
	b.pos = append(b.pos, name)
}

// Has reports whether a net name has been seen (declared or referenced).
func (b *MapBuilder) Has(name string) bool {
	_, ok := b.byName[name]
	return ok
}

// NumGates returns the number of nets seen so far.
func (b *MapBuilder) NumGates() int { return len(b.gates) }

// FreshName returns a net name derived from prefix that does not collide
// with any existing net.
func (b *MapBuilder) FreshName(prefix string) string {
	if !b.Has(prefix) {
		return prefix
	}
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s_%d", prefix, i)
		if !b.Has(name) {
			return name
		}
	}
}

// Build finalizes the netlist: checks every referenced net was defined,
// resolves outputs, and freezes the structure.
func (b *MapBuilder) Build() (*Netlist, error) {
	for id, ok := range b.defined {
		if !ok {
			return nil, fmt.Errorf("builder %q: net %q referenced but never defined", b.name, b.names[id])
		}
	}
	n := &Netlist{
		Name:  b.name,
		Gates: b.gates,
		Names: b.names,
		PIs:   b.pis,
		FFs:   b.ffs,
	}
	if len(b.noScan) > 0 {
		n.NoScan = make([]bool, len(b.gates))
		for _, id := range b.noScan {
			n.NoScan[id] = true
		}
	}
	for _, po := range b.pos {
		id, ok := b.byName[po]
		if !ok {
			return nil, fmt.Errorf("builder %q: output %q never defined", b.name, po)
		}
		n.POs = append(n.POs, id)
	}
	if err := n.Freeze(); err != nil {
		return nil, err
	}
	return n, nil
}

// CloneMap returns a MapBuilder pre-populated with the contents of an existing
// netlist, so that structural edits (Trojan insertion) can be layered on
// top of a frozen circuit.
func CloneMap(n *Netlist) *MapBuilder {
	b := NewMapBuilder(n.Name)
	b.gates = make([]Gate, len(n.Gates))
	for id, g := range n.Gates {
		b.gates[id] = Gate{Type: g.Type, Fanin: append([]int(nil), g.Fanin...)}
	}
	b.names = append([]string(nil), n.Names...)
	b.defined = make([]bool, len(n.Gates))
	for i := range b.defined {
		b.defined[i] = true
	}
	b.byName = make(map[string]int, len(n.Gates))
	for id, name := range n.Names {
		b.byName[name] = id
	}
	b.pis = append([]int(nil), n.PIs...)
	b.ffs = append([]int(nil), n.FFs...)
	for id := range n.Gates {
		if n.IsNoScan(id) {
			b.noScan = append(b.noScan, id)
		}
	}
	for _, po := range n.POs {
		b.pos = append(b.pos, n.Names[po])
	}
	return b
}

// RewireReaders redirects every gate that currently reads net from so that
// it reads net to instead, except for gates listed in exclude. Primary
// output markings are preserved (a PO on from stays on from). This is the
// payload-splice primitive for Trojan insertion.
func (b *MapBuilder) RewireReaders(from, to string, exclude ...string) error {
	fromID, ok := b.byName[from]
	if !ok {
		return fmt.Errorf("builder %q: rewire: unknown net %q", b.name, from)
	}
	toID, ok := b.byName[to]
	if !ok {
		return fmt.Errorf("builder %q: rewire: unknown net %q", b.name, to)
	}
	excluded := make(map[int]bool, len(exclude))
	for _, e := range exclude {
		id, ok := b.byName[e]
		if !ok {
			return fmt.Errorf("builder %q: rewire: unknown excluded net %q", b.name, e)
		}
		excluded[id] = true
	}
	for id := range b.gates {
		if excluded[id] || id == toID {
			continue
		}
		for slot, f := range b.gates[id].Fanin {
			if f == fromID {
				b.gates[id].Fanin[slot] = toID
			}
		}
	}
	return nil
}
