package netlist

import "fmt"

// Builder constructs a Netlist incrementally. It allows forward references
// (a gate may name fanins that are declared later), which the .bench format
// requires, and supports the structural edits Trojan insertion needs.
//
// Nets are stored in one arena: a flat fanin array filled in definition
// order (CSR-style, gate id's fanins at fanin[foff[id]:foff[id]+fcnt[id]])
// instead of one Fanin slice per gate, so million-gate parses allocate
// little beyond the symbol table. Build re-lays the arena into ID order.
//
// Two APIs fill the same arena. The name API (AddInput, AddDFF,
// AddNonScanDFF, AddGate) takes net names. The token API (Intern,
// InternString, then DefineInput, DefineDFF, DefineNonScanDFF,
// DefineGate) takes net IDs, so parsers intern byte tokens straight out
// of their read buffers. Either way a net's ID is assigned on its first
// mention (definition or reference), and MarkOutput is name-based and
// resolved at Build, so OUTPUT directives do not assign IDs.
type Builder struct {
	name   string
	names  []string
	byName map[string]int32

	typ     []GateType
	defined []bool

	fanin []int32
	foff  []int32
	fcnt  []int32

	pis    []int
	ffs    []int
	noScan []int
	pos    []string // PO net names, resolved at Build

	ids []int32 // AddGate's fanin scratch
}

// NewBuilder returns a Builder for a netlist with the given name.
func NewBuilder(name string) *Builder { return NewBuilderSized(name, 0) }

// NewBuilderSized is NewBuilder with the arenas pre-sized for roughly
// sizeHint nets. Growth is amortized either way; the hint avoids the
// early doublings on multi-million-gate inputs.
func NewBuilderSized(name string, sizeHint int) *Builder {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Builder{
		name:    name,
		names:   make([]string, 0, sizeHint),
		byName:  make(map[string]int32, sizeHint),
		typ:     make([]GateType, 0, sizeHint),
		defined: make([]bool, 0, sizeHint),
		foff:    make([]int32, 0, sizeHint),
		fcnt:    make([]int32, 0, sizeHint),
	}
}

// Intern returns the net ID for a name given as a byte token, creating
// an undefined placeholder on first sight. The token may point into a
// transient I/O buffer: the builder copies it only when the symbol is
// new (map lookups on string(tok) do not allocate).
func (b *Builder) Intern(tok []byte) int32 {
	if id, ok := b.byName[string(tok)]; ok {
		return id
	}
	return b.internNew(string(tok))
}

// InternString is Intern for callers that already hold a string.
func (b *Builder) InternString(name string) int32 {
	if id, ok := b.byName[name]; ok {
		return id
	}
	return b.internNew(name)
}

func (b *Builder) internNew(name string) int32 {
	id := int32(len(b.names))
	b.names = append(b.names, name)
	b.typ = append(b.typ, Input) // placeholder; set at definition
	b.defined = append(b.defined, false)
	b.foff = append(b.foff, 0)
	b.fcnt = append(b.fcnt, 0)
	b.byName[name] = id
	return id
}

func (b *Builder) define(id int32, typ GateType, fanins ...int32) error {
	if b.defined[id] {
		return fmt.Errorf("builder %q: net %q defined twice", b.name, b.names[id])
	}
	b.defined[id] = true
	b.typ[id] = typ
	b.foff[id] = int32(len(b.fanin))
	b.fcnt[id] = int32(len(fanins))
	b.fanin = append(b.fanin, fanins...)
	return nil
}

// DefineInput declares net id a primary input.
func (b *Builder) DefineInput(id int32) error {
	if err := b.define(id, Input); err != nil {
		return err
	}
	b.pis = append(b.pis, int(id))
	return nil
}

// DefineDFF declares net id a flip-flop (scan cell) whose D pin is net d.
func (b *Builder) DefineDFF(id, d int32) error {
	if err := b.define(id, DFF, d); err != nil {
		return err
	}
	b.ffs = append(b.ffs, int(id))
	return nil
}

// DefineNonScanDFF is DefineDFF for a flip-flop excluded from the scan
// chains.
func (b *Builder) DefineNonScanDFF(id, d int32) error {
	if err := b.DefineDFF(id, d); err != nil {
		return err
	}
	b.noScan = append(b.noScan, int(id))
	return nil
}

// DefineGate declares net id a combinational gate computing typ over
// the fanin nets. The fanins slice is copied into the arena; callers
// may reuse it across calls.
func (b *Builder) DefineGate(id int32, typ GateType, fanins []int32) error {
	if typ.IsSource() {
		return fmt.Errorf("builder %q: use AddInput/AddDFF for %s", b.name, typ)
	}
	return b.define(id, typ, fanins...)
}

// claim interns name and fails if its driver is already declared. The
// name API calls it before interning any fanin, so a net's own name
// always takes the lower ID.
func (b *Builder) claim(name string) (int32, error) {
	id := b.InternString(name)
	if b.defined[id] {
		return 0, fmt.Errorf("builder %q: net %q defined twice", b.name, name)
	}
	return id, nil
}

// AddInput declares a primary input.
func (b *Builder) AddInput(name string) (int, error) {
	id := b.InternString(name)
	return int(id), b.DefineInput(id)
}

// AddDFF declares a flip-flop (scan cell) whose D pin is the named net.
func (b *Builder) AddDFF(name, d string) (int, error) {
	id, err := b.claim(name)
	if err != nil {
		return 0, err
	}
	return int(id), b.DefineDFF(id, b.InternString(d))
}

// AddNonScanDFF declares a flip-flop excluded from the scan chains — the
// hidden state an attacker's sequential trigger would use (scan access to
// the counter would expose it immediately).
func (b *Builder) AddNonScanDFF(name, d string) (int, error) {
	id, err := b.claim(name)
	if err != nil {
		return 0, err
	}
	return int(id), b.DefineNonScanDFF(id, b.InternString(d))
}

// AddGate declares a combinational gate computing typ over the fanin nets.
func (b *Builder) AddGate(name string, typ GateType, fanins ...string) (int, error) {
	if typ.IsSource() {
		return 0, fmt.Errorf("builder %q: use AddInput/AddDFF for %s", b.name, typ)
	}
	id, err := b.claim(name)
	if err != nil {
		return 0, err
	}
	b.ids = b.ids[:0]
	for _, f := range fanins {
		b.ids = append(b.ids, b.InternString(f))
	}
	return int(id), b.DefineGate(id, typ, b.ids)
}

// MarkOutput declares the named net a primary output. The net may be
// declared later; resolution happens at Build.
func (b *Builder) MarkOutput(name string) {
	b.pos = append(b.pos, name)
}

// Has reports whether a net name has been seen (declared or referenced).
func (b *Builder) Has(name string) bool {
	_, ok := b.byName[name]
	return ok
}

// NumGates returns the number of nets seen so far.
func (b *Builder) NumGates() int { return len(b.names) }

// FreshName returns a net name derived from prefix that does not collide
// with any existing net.
func (b *Builder) FreshName(prefix string) string {
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

// Clone returns a Builder pre-populated with the contents of an existing
// netlist, so that structural edits (Trojan insertion) can be layered on
// top of a frozen circuit.
func Clone(n *Netlist) *Builder {
	num := len(n.Gates)
	b := &Builder{
		name:    n.Name,
		names:   append([]string(nil), n.Names...),
		byName:  make(map[string]int32, num),
		typ:     make([]GateType, num),
		defined: make([]bool, num),
		foff:    make([]int32, num),
		fcnt:    make([]int32, num),
		pis:     append([]int(nil), n.PIs...),
		ffs:     append([]int(nil), n.FFs...),
	}
	for id, g := range n.Gates {
		b.byName[n.Names[id]] = int32(id)
		b.typ[id] = g.Type
		b.defined[id] = true
		b.foff[id] = int32(len(b.fanin))
		b.fcnt[id] = int32(len(g.Fanin))
		for _, f := range g.Fanin {
			b.fanin = append(b.fanin, int32(f))
		}
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
func (b *Builder) RewireReaders(from, to string, exclude ...string) error {
	fromID, ok := b.byName[from]
	if !ok {
		return fmt.Errorf("builder %q: rewire: unknown net %q", b.name, from)
	}
	toID, ok := b.byName[to]
	if !ok {
		return fmt.Errorf("builder %q: rewire: unknown net %q", b.name, to)
	}
	excluded := make(map[int32]bool, len(exclude))
	for _, e := range exclude {
		id, ok := b.byName[e]
		if !ok {
			return fmt.Errorf("builder %q: rewire: unknown excluded net %q", b.name, e)
		}
		excluded[id] = true
	}
	for id := range b.names {
		if excluded[int32(id)] || int32(id) == toID {
			continue
		}
		for i := b.foff[id]; i < b.foff[id]+b.fcnt[id]; i++ {
			if b.fanin[i] == fromID {
				b.fanin[i] = toID
			}
		}
	}
	return nil
}

// Build finalizes the netlist: checks every referenced net was defined,
// resolves outputs, re-lays the arena fanins into ID order behind one
// shared backing array, and freezes the structure. The netlist carries
// no name index; Netlist.GateID builds one on first lookup, so pure
// simulation workloads never pay for a million-entry map.
func (b *Builder) Build() (*Netlist, error) {
	for id, ok := range b.defined {
		if !ok {
			return nil, fmt.Errorf("builder %q: net %q referenced but never defined", b.name, b.names[id])
		}
	}
	num := len(b.names)
	gates := make([]Gate, num)
	flat := make([]int, len(b.fanin))
	pos := 0
	for id := 0; id < num; id++ {
		g := &gates[id]
		g.Type = b.typ[id]
		cnt := int(b.fcnt[id])
		if cnt == 0 {
			continue
		}
		span := flat[pos : pos+cnt : pos+cnt]
		src := b.fanin[b.foff[id] : int(b.foff[id])+cnt]
		for i, f := range src {
			span[i] = int(f)
		}
		g.Fanin = span
		pos += cnt
	}

	n := &Netlist{
		Name:  b.name,
		Gates: gates,
		Names: b.names,
		PIs:   b.pis,
		FFs:   b.ffs,
	}
	if len(b.noScan) > 0 {
		n.NoScan = make([]bool, num)
		for _, id := range b.noScan {
			n.NoScan[id] = true
		}
	}
	for _, po := range b.pos {
		id, ok := b.byName[po]
		if !ok {
			return nil, fmt.Errorf("builder %q: output %q never defined", b.name, po)
		}
		n.POs = append(n.POs, int(id))
	}
	if err := n.Freeze(); err != nil {
		return nil, err
	}
	return n, nil
}
