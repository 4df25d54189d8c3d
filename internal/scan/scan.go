// Package scan models the design-for-test infrastructure the paper's
// methodology lives inside: scan chains over the circuit's flip-flops and
// the application of transition test patterns through them.
//
// The central property (paper §IV-A) is the Launch-on-Shift transparency
// rule: under LOS, the launch transition at a scan cell is determined
// purely by the two adjacent bits of the scan-in vector at that chain
// position — ...01... or ...10... launches a transition from that cell —
// so pattern modifications have directly predictable activity effects,
// which is exactly what the adaptive flow and the strategic modifications
// of §IV-D exploit.
package scan

import (
	"fmt"
	"strings"

	"superpose/internal/logic"
	"superpose/internal/netlist"
	"superpose/internal/scratch"
	"superpose/internal/sim"
	"superpose/internal/stats"
)

// Mode selects the transition-test application technique.
type Mode uint8

const (
	// LOS (Launch-on-Shift) launches the transition with the final shift
	// clock: cell j moves from bit j-1's value to bit j's value.
	LOS Mode = iota
	// LOC (Launch-on-Capture) launches from the functional capture: the
	// loaded state propagates through the logic and the D-pin responses
	// form the second frame. Included for the ablation of §IV-A.
	LOC
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case LOS:
		return "LOS"
	case LOC:
		return "LOC"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Chains is a scan configuration: an ordered partition of the netlist's
// flip-flops into shift registers. Index 0 of a chain is the cell nearest
// scan-in.
type Chains struct {
	n      *netlist.Netlist
	chains [][]int // chain -> ordered FF gate IDs
	pos    map[int]CellPos
}

// CellPos locates a scan cell within the configuration.
type CellPos struct {
	Chain, Index int
}

// Configure partitions the netlist's scannable flip-flops, in declaration
// order, into numChains chains of near-equal length. NoScan-marked cells
// (hidden sequential-Trojan state) are excluded. numChains is clamped to
// [1, #FFs]; a netlist without flip-flops yields an empty configuration.
func Configure(n *netlist.Netlist, numChains int) *Chains {
	ffs := n.ScanFFs()
	if numChains < 1 {
		numChains = 1
	}
	if numChains > len(ffs) {
		numChains = len(ffs)
	}
	c := &Chains{n: n, pos: make(map[int]CellPos, len(ffs))}
	if len(ffs) == 0 {
		return c
	}
	base := len(ffs) / numChains
	extra := len(ffs) % numChains
	start := 0
	for i := 0; i < numChains; i++ {
		length := base
		if i < extra {
			length++
		}
		chain := ffs[start : start+length]
		c.chains = append(c.chains, chain)
		for j, ff := range chain {
			c.pos[ff] = CellPos{Chain: i, Index: j}
		}
		start += length
	}
	return c
}

// FromOrder builds a configuration over n with explicit per-chain cell ID
// lists (e.g. transplanting a reordered configuration from the golden
// netlist onto the physical one, whose flip-flop IDs coincide). Every
// flip-flop of n must appear exactly once.
func FromOrder(n *netlist.Netlist, chains [][]int) (*Chains, error) {
	c := &Chains{n: n, pos: make(map[int]CellPos)}
	for ci, chain := range chains {
		for j, ff := range chain {
			if ff < 0 || ff >= n.NumGates() || n.Gates[ff].Type != netlist.DFF {
				return nil, fmt.Errorf("scan: chain %d entry %d: gate %d is not a flip-flop", ci, j, ff)
			}
			if _, dup := c.pos[ff]; dup {
				return nil, fmt.Errorf("scan: cell %s appears twice", n.NameOf(ff))
			}
			c.pos[ff] = CellPos{Chain: ci, Index: j}
		}
		c.chains = append(c.chains, append([]int(nil), chain...))
	}
	if len(c.pos) != len(n.ScanFFs()) {
		return nil, fmt.Errorf("scan: order covers %d of %d cells", len(c.pos), len(n.ScanFFs()))
	}
	return c, nil
}

// Order returns a deep copy of the per-chain cell ID lists.
func (c *Chains) Order() [][]int {
	out := make([][]int, len(c.chains))
	for i, chain := range c.chains {
		out[i] = append([]int(nil), chain...)
	}
	return out
}

// Netlist returns the configured netlist.
func (c *Chains) Netlist() *netlist.Netlist { return c.n }

// NumChains returns the number of scan chains.
func (c *Chains) NumChains() int { return len(c.chains) }

// Chain returns the ordered cell IDs of chain i (owned by Chains).
func (c *Chains) Chain(i int) []int { return c.chains[i] }

// Position returns the chain position of a flip-flop gate ID.
func (c *Chains) Position(ff int) (CellPos, bool) {
	p, ok := c.pos[ff]
	return p, ok
}

// Lengths returns the per-chain cell counts.
func (c *Chains) Lengths() []int {
	out := make([]int, len(c.chains))
	for i, ch := range c.chains {
		out[i] = len(ch)
	}
	return out
}

// Pattern is one transition test: the scan-in vectors (bit j = final value
// of chain cell j after load) plus static primary-input values in netlist
// PI order. Under LOS the primary inputs hold across both frames.
type Pattern struct {
	Scan [][]bool `json:"scan"`
	PI   []bool   `json:"pi"`
}

// NewPattern allocates an all-zero pattern shaped for the configuration.
func (c *Chains) NewPattern() *Pattern {
	p := &Pattern{
		Scan: make([][]bool, len(c.chains)),
		PI:   make([]bool, len(c.n.PIs)),
	}
	for i, ch := range c.chains {
		p.Scan[i] = make([]bool, len(ch))
	}
	return p
}

// RandomPattern returns a uniformly random pattern.
func (c *Chains) RandomPattern(rng *stats.RNG) *Pattern {
	p := c.NewPattern()
	for i := range p.Scan {
		for j := range p.Scan[i] {
			p.Scan[i][j] = rng.Bool()
		}
	}
	for i := range p.PI {
		p.PI[i] = rng.Bool()
	}
	return p
}

// Clone deep-copies the pattern.
func (p *Pattern) Clone() *Pattern {
	q := &Pattern{
		Scan: make([][]bool, len(p.Scan)),
		PI:   append([]bool(nil), p.PI...),
	}
	for i, ch := range p.Scan {
		q.Scan[i] = append([]bool(nil), ch...)
	}
	return q
}

// Equal reports deep equality.
func (p *Pattern) Equal(q *Pattern) bool {
	if len(p.Scan) != len(q.Scan) || len(p.PI) != len(q.PI) {
		return false
	}
	for i := range p.PI {
		if p.PI[i] != q.PI[i] {
			return false
		}
	}
	for i := range p.Scan {
		if len(p.Scan[i]) != len(q.Scan[i]) {
			return false
		}
		for j := range p.Scan[i] {
			if p.Scan[i][j] != q.Scan[i][j] {
				return false
			}
		}
	}
	return true
}

// TransitionCount returns the number of LOS launch transitions: adjacent
// opposite-value bit pairs across all chains (paper §IV-A).
func (p *Pattern) TransitionCount() int {
	c := 0
	for _, chain := range p.Scan {
		for j := 1; j < len(chain); j++ {
			if chain[j] != chain[j-1] {
				c++
			}
		}
	}
	return c
}

// TransitionAt reports whether cell (chain, idx) launches a transition
// under LOS. Cell 0 of each chain never launches (its prior state is the
// scan-in pin history, pinned to its own value).
func (p *Pattern) TransitionAt(chain, idx int) bool {
	if idx == 0 {
		return false
	}
	return p.Scan[chain][idx] != p.Scan[chain][idx-1]
}

// String renders the pattern compactly: chains as 0/1 runs, then PIs.
func (p *Pattern) String() string {
	var b strings.Builder
	for i, chain := range p.Scan {
		if i > 0 {
			b.WriteByte('|')
		}
		for _, v := range chain {
			if v {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
	}
	b.WriteByte('/')
	for _, v := range p.PI {
		if v {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// LOSSources builds the two frame source assignments of a single pattern
// under LOS (lane 0 only): frame 1 holds the one-shift-earlier scan state,
// frame 2 the fully loaded state; primary inputs hold in both. Useful for
// feeding simulators other than the Engine's (e.g. the event-driven
// glitch analysis).
func (c *Chains) LOSSources(p *Pattern) (f1, f2 []logic.Word) {
	n := c.n
	f1 = make([]logic.Word, n.NumGates())
	f2 = make([]logic.Word, n.NumGates())
	for pi, id := range n.PIs {
		if p.PI[pi] {
			f1[id] = 1
			f2[id] = 1
		}
	}
	for ci, chain := range c.chains {
		bits := p.Scan[ci]
		for j, ff := range chain {
			prev := bits[0]
			if j > 0 {
				prev = bits[j-1]
			}
			if prev {
				f1[ff] = 1
			}
			if bits[j] {
				f2[ff] = 1
			}
		}
	}
	return f1, f2
}

// Engine applies patterns to a netlist and extracts launch activity. It
// evaluates full launches through the PPSFP engine (a level-order walk
// over the structure-of-arrays netlist core) and owns its scratch
// buffers; not safe for concurrent use.
type Engine struct {
	ch     *Chains
	pp     *sim.PPSFP
	src    []logic.Word
	f1     []logic.Word // frame-1 net values (copy)
	f2     []logic.Word // frame-2 net values (copy)
	hidden map[int]logic.Word
	valid  bool
}

// NewEngine returns an Engine over the configuration's netlist.
func NewEngine(ch *Chains) *Engine {
	return &Engine{
		ch:  ch,
		pp:  sim.NewPPSFP(ch.n),
		src: scratch.Words(ch.n.NumGates()),
		f1:  scratch.Words(ch.n.NumGates()),
		f2:  scratch.Words(ch.n.NumGates()),
	}
}

// Close returns the engine's pooled per-net buffers (frames, sources,
// the PPSFP value plane) to the shared pools. The Engine must not be
// used afterwards; Close is idempotent.
func (e *Engine) Close() {
	if e.f1 == nil {
		return
	}
	scratch.PutWords(e.src)
	scratch.PutWords(e.f1)
	scratch.PutWords(e.f2)
	e.src, e.f1, e.f2 = nil, nil, nil
	e.pp.Release()
	e.valid = false
}

// Chains returns the engine's scan configuration.
func (e *Engine) Chains() *Chains { return e.ch }

// SetHiddenState pins the frozen value of a NoScan flip-flop during test
// application (default all-zero). Hidden cells see no capture pulse in
// this regime, so their state is constant across both frames of every
// launch.
func (e *Engine) SetHiddenState(ff int, w logic.Word) {
	if e.hidden == nil {
		e.hidden = make(map[int]logic.Word)
	}
	e.hidden[ff] = w
}

// Launch simulates the two frames of up to 64 patterns at once (pattern i
// on lane i) under the given mode and returns the per-net frame values.
// The returned slices are owned by the engine and valid until the next
// Launch. Batches outside 1..64 patterns (the lane width of the
// bit-parallel simulator) are reported as an error; higher layers chunk
// arbitrary pattern counts for callers.
func (e *Engine) Launch(pats []*Pattern, mode Mode) (f1, f2 []logic.Word, err error) {
	if len(pats) == 0 || len(pats) > 64 {
		return nil, nil, fmt.Errorf("scan: Launch with %d patterns (want 1..64)", len(pats))
	}
	n := e.ch.n

	// Frame 1 sources.
	for i := range e.src {
		e.src[i] = 0
	}
	for ff, w := range e.hidden {
		e.src[ff] = w
	}
	for lane, p := range pats {
		bit := logic.Word(1) << uint(lane)
		for pi, id := range n.PIs {
			if p.PI[pi] {
				e.src[id] |= bit
			}
		}
		for ci, chain := range e.ch.chains {
			bits := p.Scan[ci]
			for j, ff := range chain {
				var v bool
				switch mode {
				case LOS:
					if j == 0 {
						v = bits[0] // pinned: no launch at the scan-in cell
					} else {
						v = bits[j-1]
					}
				case LOC:
					v = bits[j]
				}
				if v {
					e.src[ff] |= bit
				}
			}
		}
	}
	e.pp.RunInto(e.src, e.f1)

	// Frame 2 sources: PIs unchanged.
	switch mode {
	case LOS:
		for lane, p := range pats {
			bit := logic.Word(1) << uint(lane)
			for ci, chain := range e.ch.chains {
				bits := p.Scan[ci]
				for j, ff := range chain {
					if bits[j] {
						e.src[ff] |= bit
					} else {
						e.src[ff] &^= bit
					}
				}
			}
		}
	case LOC:
		// Capture: each scannable FF takes its D-pin response from frame 1.
		// Hidden (NoScan) cells hold — the capture pulse is what they
		// never see in this test regime.
		for _, ff := range n.FFs {
			if n.IsNoScan(ff) {
				continue
			}
			e.src[ff] = e.f1[n.Gates[ff].Fanin[0]]
		}
	}
	e.pp.RunInto(e.src, e.f2)

	e.valid = true
	return e.f1, e.f2, nil
}

// Toggled returns the sparse toggle encoding of the most recent Launch —
// every net that toggles in any lane, in ascending gate-ID order, with
// its lane mask (frame1 XOR frame2) — reusing the storage of ids and
// masks.
func (e *Engine) Toggled(ids []int, masks []logic.Word) ([]int, []logic.Word) {
	if !e.valid {
		panic("scan: Toggled before Launch")
	}
	return sim.AppendToggled(e.f1, e.f2, ids[:0], masks[:0])
}

// Toggles returns the toggle set (gate IDs whose value changed between the
// frames) of pattern lane `lane` from the most recent Launch.
func (e *Engine) Toggles(lane uint) []int {
	if !e.valid {
		panic("scan: Toggles before Launch")
	}
	return sim.ToggleSet(e.f1, e.f2, lane)
}
