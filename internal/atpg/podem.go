package atpg

import (
	"superpose/internal/logic"
	"superpose/internal/netlist"
	"superpose/internal/scan"
)

// expansion maps the two-frame LOS circuit onto decision variables: one
// variable per scan-in bit (flattened chain-major) followed by one per
// primary input. Frame-1 state of chain cell j is scan bit j-1 (bit 0 for
// the scan-in cell, which therefore never launches); frame-2 state is scan
// bit j; primary inputs hold in both frames.
type expansion struct {
	n          *netlist.Netlist
	ch         *scan.Chains
	chainStart []int // variable index of each chain's bit 0
	numScan    int
	piVar      map[int]int // PI gate ID -> variable
	obs        []int       // observation nets: POs + FF D-pins (deduplicated)
	isObs      []bool      // per-net observation flag
	scoap      *Scoap      // controllability guidance for backtrace

	// drives[v] lists the frame sources variable v drives; frozen lists
	// those of the NoScan cells, which no variable drives.
	drives [][]frameSource
	frozen []frameSource
}

// frameSource is a primary input or flip-flop in one frame, with the
// decision variable that drives it (-1 for a NoScan cell, which holds a
// constant 0: its state is frozen during test application).
type frameSource struct {
	net, v int
	frame  uint8 // 1 or 2
}

// observationNets returns the nets a fault effect is observed at, the POs
// and flip-flop D-pins, deduplicated in that order, with a per-net flag.
func observationNets(n *netlist.Netlist) ([]int, []bool) {
	var obs []int
	isObs := make([]bool, n.NumGates())
	add := func(id int) {
		if !isObs[id] {
			isObs[id] = true
			obs = append(obs, id)
		}
	}
	for _, po := range n.POs {
		add(po)
	}
	for _, ff := range n.FFs {
		add(n.Gates[ff].Fanin[0])
	}
	return obs, isObs
}

func newExpansion(n *netlist.Netlist, ch *scan.Chains) *expansion {
	e := &expansion{n: n, ch: ch, piVar: make(map[int]int, len(n.PIs))}
	for i := 0; i < ch.NumChains(); i++ {
		e.chainStart = append(e.chainStart, e.numScan)
		e.numScan += len(ch.Chain(i))
	}
	for i, pi := range n.PIs {
		e.piVar[pi] = e.numScan + i
	}
	e.obs, e.isObs = observationNets(n)
	e.scoap = ComputeScoap(n)

	e.drives = make([][]frameSource, e.numVars())
	add := func(s frameSource) {
		if s.v < 0 {
			e.frozen = append(e.frozen, s)
		} else {
			e.drives[s.v] = append(e.drives[s.v], s)
		}
	}
	for _, pi := range n.PIs {
		v := e.piVar[pi]
		add(frameSource{net: pi, v: v, frame: 1})
		add(frameSource{net: pi, v: v, frame: 2})
	}
	for _, ff := range n.FFs {
		add(frameSource{net: ff, v: e.frameVar(ff, 1), frame: 1})
		add(frameSource{net: ff, v: e.frameVar(ff, 2), frame: 2})
	}
	return e
}

// numVars returns the decision-variable count.
func (e *expansion) numVars() int { return e.numScan + len(e.n.PIs) }

// scanVar returns the variable holding scan bit (chain, idx).
func (e *expansion) scanVar(chain, idx int) int { return e.chainStart[chain] + idx }

// frameVar returns the variable feeding flip-flop ff in the given frame
// (1 or 2) under LOS, or -1 for a NoScan cell (uncontrollable: its state
// is frozen during test application).
func (e *expansion) frameVar(ff int, frame int) int {
	pos, ok := e.ch.Position(ff)
	if !ok {
		return -1
	}
	idx := pos.Index
	if frame == 1 && idx > 0 {
		idx--
	}
	return e.scanVar(pos.Chain, idx)
}

// podem is the per-fault decision engine. Implication is event-driven:
// every assignment change goes through set, and imply re-evaluates only
// the fanout of the frame sources those variables drive, level by level,
// each queued gate once and its fanout only when its value changed.
type podem struct {
	e      *expansion
	fault  Fault
	assign []logic.V // per variable
	v1, v2 []logic.V // per net, frames 1 and 2

	dirty   []int   // variables changed since the last imply
	queued  []bool  // per event key 2·net + frame-1
	buckets [][]int // per level, the queued event keys
	top     int     // highest level holding a queued event

	// scratch for the X-path check
	mark []bool
}

func newPodem(e *expansion, f Fault) *podem {
	n := e.n
	p := &podem{
		e:       e,
		assign:  make([]logic.V, e.numVars()),
		v1:      make([]logic.V, n.NumGates()),
		v2:      make([]logic.V, n.NumGates()),
		queued:  make([]bool, 2*n.NumGates()),
		buckets: make([][]int, n.Depth()+1),
		mark:    make([]bool, n.NumGates()),
	}
	p.reset(f)
	return p
}

// reset retargets p at fault f with every variable unassigned, reusing
// its buffers: both frames start all-X and every source is seeded
// through the same implication as a decision.
func (p *podem) reset(f Fault) {
	p.fault = f
	for i := range p.assign {
		p.assign[i] = logic.X
	}
	for i := range p.v1 {
		p.v1[i] = logic.X
		p.v2[i] = logic.X
	}
	p.dirty = p.dirty[:0]
	for _, srcs := range p.e.drives {
		p.seed(srcs)
	}
	p.seed(p.e.frozen)
	p.drain()
}

// set assigns variable v, recording a change for the next imply.
func (p *podem) set(v int, val logic.V) {
	if p.assign[v] != val {
		p.assign[v] = val
		p.dirty = append(p.dirty, v)
	}
}

// imply brings both frames up to date with the variables changed since
// the last call.
func (p *podem) imply() {
	for _, v := range p.dirty {
		p.seed(p.e.drives[v])
	}
	p.dirty = p.dirty[:0]
	p.drain()
}

// seed recomputes the given frame sources from the assignment and queues
// the fanout of each one that changed. A flip-flop fault site is injected
// at its frame-2 source; a primary input never is.
func (p *podem) seed(srcs []frameSource) {
	for _, s := range srcs {
		val := logic.Zero
		if s.v >= 0 {
			val = p.assign[s.v]
		}
		vals := p.v1
		if s.frame == 2 {
			vals = p.v2
			if s.net == p.fault.Net && p.e.n.Gates[s.net].Type == netlist.DFF {
				val = p.inject(val)
			}
		}
		if vals[s.net] != val {
			vals[s.net] = val
			p.schedule(s.net, s.frame)
		}
	}
}

// schedule queues the combinational fanout of net id in one frame.
func (p *podem) schedule(id int, frame uint8) {
	n := p.e.n
	for _, fo := range n.Fanouts(id) {
		if n.Gates[fo].Type.IsSource() {
			continue
		}
		k := 2*fo + int(frame-1)
		if p.queued[k] {
			continue
		}
		p.queued[k] = true
		lvl := n.Level(fo)
		p.buckets[lvl] = append(p.buckets[lvl], k)
		if lvl > p.top {
			p.top = lvl
		}
	}
}

// drain evaluates the queued gates in level order. A gate's fanout sits
// at a higher level, so every gate sees settled inputs and runs once; a
// gate fault site is injected after its frame-2 evaluation.
func (p *podem) drain() {
	n := p.e.n
	for lvl := 1; lvl <= p.top; lvl++ {
		for _, k := range p.buckets[lvl] {
			p.queued[k] = false
			id, frame := k>>1, uint8(k&1)+1
			vals := p.v1
			if frame == 2 {
				vals = p.v2
			}
			v := eval5(n, vals, id)
			if frame == 2 && id == p.fault.Net {
				v = p.inject(v)
			}
			if v != vals[id] {
				vals[id] = v
				p.schedule(id, frame)
			}
		}
		p.buckets[lvl] = p.buckets[lvl][:0]
	}
	p.top = 0
}

// eval5 computes the five-valued output of gate id over the value slice.
func eval5(n *netlist.Netlist, vals []logic.V, id int) logic.V {
	g := &n.Gates[id]
	switch g.Type {
	case netlist.Buf:
		return vals[g.Fanin[0]]
	case netlist.Not:
		return vals[g.Fanin[0]].Not()
	case netlist.And, netlist.Nand:
		w := logic.One
		for _, f := range g.Fanin {
			w = logic.And5(w, vals[f])
		}
		if g.Type == netlist.Nand {
			w = w.Not()
		}
		return w
	case netlist.Or, netlist.Nor:
		w := logic.Zero
		for _, f := range g.Fanin {
			w = logic.Or5(w, vals[f])
		}
		if g.Type == netlist.Nor {
			w = w.Not()
		}
		return w
	case netlist.Xor, netlist.Xnor:
		w := logic.Zero
		for _, f := range g.Fanin {
			w = logic.Xor5(w, vals[f])
		}
		if g.Type == netlist.Xnor {
			w = w.Not()
		}
		return w
	default:
		panic("atpg: source gate in topo order")
	}
}

// inject maps the good-machine frame-2 value at the fault site to its
// five-valued faulty composite: the site behaves as stuck at the fault's
// initial value during the capture frame.
func (p *podem) inject(good logic.V) logic.V {
	switch good {
	case logic.One:
		if p.fault.Dir == SlowToRise {
			return logic.D // good 1, faulty stuck at 0
		}
		return logic.One
	case logic.Zero:
		if p.fault.Dir == SlowToFall {
			return logic.Dbar // good 0, faulty stuck at 1
		}
		return logic.Zero
	default:
		return logic.X
	}
}

type status uint8

const (
	statusOpen status = iota
	statusSuccess
	statusConflict
)

// check classifies the current simulation state.
func (p *podem) check() status {
	initial := logic.FromBit(p.fault.Dir.initial())
	// Launch condition: frame-1 site value must be the initial value.
	if v := p.v1[p.fault.Net]; v.Known() && v != initial {
		return statusConflict
	}
	// Activation: frame-2 good value must be the final value; with the
	// injection applied, a wrong final value shows as the plain initial.
	if v := p.v2[p.fault.Net]; v.Known() && !v.IsD() {
		return statusConflict
	}
	// Success: a fault effect visible at an observation point.
	for _, o := range p.e.obs {
		if p.v2[o].IsD() {
			return statusSuccess
		}
	}
	if !p.xPath() {
		return statusConflict
	}
	return statusOpen
}

// xPath reports whether a fault effect can still reach an observation
// point: a forward path from a D-bearing net (or the not-yet-activated
// site) through X-valued nets to an observation net.
func (p *podem) xPath() bool {
	n := p.e.n
	for i := range p.mark {
		p.mark[i] = false
	}
	var queue []int
	push := func(id int) {
		if !p.mark[id] {
			p.mark[id] = true
			queue = append(queue, id)
		}
	}
	for id := range p.v2 {
		if p.v2[id].IsD() {
			push(id)
		}
	}
	if p.v2[p.fault.Net] == logic.X {
		push(p.fault.Net)
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if p.e.isObs[id] {
			return true
		}
		for _, fo := range n.Fanouts(id) {
			if n.Gates[fo].Type.IsSource() {
				continue
			}
			if p.v2[fo] == logic.X {
				push(fo)
			}
		}
	}
	return false
}

// objective returns the next (net, value, frame) goal.
func (p *podem) objective() (net int, val bool, frame int, ok bool) {
	if p.v1[p.fault.Net] == logic.X {
		return p.fault.Net, p.fault.Dir.initial(), 1, true
	}
	if p.v2[p.fault.Net] == logic.X {
		return p.fault.Net, p.fault.Dir.final(), 2, true
	}
	// Propagate: find the first D-frontier gate in topological order and
	// ask for a non-controlling value on one of its X inputs.
	n := p.e.n
	for _, id := range n.TopoOrder() {
		if p.v2[id] != logic.X {
			continue
		}
		g := &n.Gates[id]
		hasD := false
		for _, f := range g.Fanin {
			if p.v2[f].IsD() {
				hasD = true
				break
			}
		}
		if !hasD {
			continue
		}
		for _, f := range g.Fanin {
			if p.v2[f] == logic.X {
				return f, nonControlling(g.Type), 2, true
			}
		}
	}
	return 0, false, 0, false
}

// nonControlling returns the value that lets a fault effect pass the gate.
func nonControlling(t netlist.GateType) bool {
	switch t {
	case netlist.And, netlist.Nand:
		return true
	default: // OR/NOR need 0; XOR-class passes with either, use 0
		return false
	}
}

// inverts reports whether the gate type complements its AND/OR/parity core.
func inverts(t netlist.GateType) bool {
	switch t {
	case netlist.Nand, netlist.Nor, netlist.Not, netlist.Xnor:
		return true
	default:
		return false
	}
}

// backtrace maps an objective to an unassigned decision variable and a
// trial value, walking backward through X-valued nets. It is heuristic:
// bad choices are corrected by backtracking.
func (p *podem) backtrace(net int, val bool, frame int) (variable int, value bool) {
	n := p.e.n
	vals := p.v1
	if frame == 2 {
		vals = p.v2
	}
	for {
		g := &n.Gates[net]
		switch g.Type {
		case netlist.Input:
			return p.e.piVar[net], val
		case netlist.DFF:
			return p.e.frameVar(net, frame), val
		}
		if inverts(g.Type) {
			val = !val
		}
		switch g.Type {
		case netlist.Buf, netlist.Not:
			net = g.Fanin[0]
			continue
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			// After un-inversion val is the desired AND/OR core output and
			// also the value to request on the chosen input (AND core:
			// output 1 needs all inputs 1, output 0 needs one input 0).
			// Input choice follows SCOAP: when one controlling input
			// suffices, take the cheapest; when every input must hold the
			// non-controlling value, take the hardest first so infeasible
			// requirements fail early.
			coreAnd := g.Type == netlist.And || g.Type == netlist.Nand
			controllingNeed := (coreAnd && !val) || (!coreAnd && val)
			next := -1
			best := 0
			for _, f := range g.Fanin {
				if vals[f] != logic.X {
					continue
				}
				cost := p.e.scoap.Cost(f, val)
				better := next < 0 ||
					(controllingNeed && cost < best) ||
					(!controllingNeed && cost > best)
				if better {
					next, best = f, cost
				}
			}
			if next < 0 {
				// Shouldn't happen for an X-valued objective net; bail to
				// the first fanin to keep the walk total.
				next = g.Fanin[0]
			}
			net = next
		case netlist.Xor, netlist.Xnor:
			// Parity: choose the first X input; target value is the core
			// parity with all other X inputs assumed 0 and known inputs
			// folded in.
			next := -1
			parity := val
			for _, f := range g.Fanin {
				if vals[f] == logic.X {
					if next < 0 {
						next = f
					}
					continue
				}
				if bit, known := vals[f].Good(); known && bit {
					parity = !parity
				}
			}
			if next < 0 {
				next = g.Fanin[0]
			}
			val = parity
			net = next
		default:
			panic("atpg: unexpected gate type in backtrace")
		}
	}
}

// result of a generation attempt for one fault.
type genResult struct {
	ok      bool
	aborted bool // backtrack limit hit (fault may still be testable)
}

// run executes the PODEM decision loop. On success the assignment slice
// holds the care bits (X entries are don't-cares).
func (p *podem) run(backtrackLimit int) genResult {
	type decision struct {
		variable int
		value    bool
		flipped  bool
	}
	var stack []decision
	backtracks := 0

	// backtrack flips the deepest unflipped decision. Returns the loop
	// verdict: exhausted (untestable), aborted (limit), or keep going.
	const (
		keepGoing = iota
		exhausted
		limitHit
	)
	backtrack := func() int {
		for {
			if len(stack) == 0 {
				return exhausted
			}
			top := &stack[len(stack)-1]
			if !top.flipped {
				backtracks++
				if backtracks > backtrackLimit {
					return limitHit
				}
				top.flipped = true
				top.value = !top.value
				p.set(top.variable, logic.FromBit(top.value))
				return keepGoing
			}
			p.set(top.variable, logic.X)
			stack = stack[:len(stack)-1]
		}
	}

	for {
		p.imply()
		st := p.check()
		if st == statusSuccess {
			return genResult{ok: true}
		}

		conflict := st == statusConflict
		var variable int
		var value bool
		if !conflict {
			net, val, frame, ok := p.objective()
			if !ok {
				conflict = true // nothing left to try on this branch
			} else {
				variable, value = p.backtrace(net, val, frame)
				if variable < 0 || p.assign[variable] != logic.X {
					// The heuristic walk landed on an uncontrollable
					// (NoScan) cell or an assigned variable; treat the
					// branch as conflicting to force progress.
					conflict = true
				}
			}
		}
		if conflict {
			switch backtrack() {
			case exhausted:
				return genResult{}
			case limitHit:
				return genResult{aborted: true}
			}
			continue
		}
		stack = append(stack, decision{variable: variable, value: value})
		p.set(variable, logic.FromBit(value))
	}
}
