package atpg

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"superpose/internal/logic"
	"superpose/internal/netlist"
	"superpose/internal/scan"
	"superpose/internal/stats"
	"superpose/internal/trust"
)

// referenceSimulate is the implication oracle: a full five-valued
// resimulation of both frames under p's assignment, in topological order,
// with the fault injected at its site in the capture frame (at a
// flip-flop's frame-2 source, after a gate's evaluation, never at a PI).
func referenceSimulate(p *podem) (v1, v2 []logic.V) {
	e, n := p.e, p.e.n
	v1 = make([]logic.V, n.NumGates())
	v2 = make([]logic.V, n.NumGates())
	frameValue := func(ff, frame int) logic.V {
		v := e.frameVar(ff, frame)
		if v < 0 {
			return logic.Zero
		}
		return p.assign[v]
	}
	// Frame 1: plain three-valued evaluation, no fault.
	for _, pi := range n.PIs {
		v1[pi] = p.assign[e.piVar[pi]]
	}
	for _, ff := range n.FFs {
		v1[ff] = frameValue(ff, 1)
	}
	for _, id := range n.TopoOrder() {
		v1[id] = eval5(n, v1, id)
	}
	// Frame 2: fault injected at the site.
	for _, pi := range n.PIs {
		v2[pi] = p.assign[e.piVar[pi]]
	}
	for _, ff := range n.FFs {
		v := frameValue(ff, 2)
		if ff == p.fault.Net {
			v = p.inject(v)
		}
		v2[ff] = v
	}
	for _, id := range n.TopoOrder() {
		v := eval5(n, v2, id)
		if id == p.fault.Net {
			v = p.inject(v)
		}
		v2[id] = v
	}
	return v1, v2
}

// randomImplyNetlist builds a small random sequential netlist: some
// NoScan cells, flip-flop D-pins and POs fed straight from PIs (so PIs
// are observation nets too), and repeated fanins.
func randomImplyNetlist(t testing.TB, seed uint64) *netlist.Netlist {
	t.Helper()
	rng := stats.NewRNG(seed)
	b := netlist.NewBuilder(fmt.Sprintf("imply%d", seed))
	pis, ffs, gates := 1+rng.Intn(5), 1+rng.Intn(8), 2+rng.Intn(40)
	var nets []string
	for i := 0; i < pis; i++ {
		name := fmt.Sprintf("i%d", i)
		if _, err := b.AddInput(name); err != nil {
			t.Fatal(err)
		}
		nets = append(nets, name)
	}
	gateNames := make([]string, gates)
	for i := range gateNames {
		gateNames[i] = fmt.Sprintf("g%d", i)
	}
	for i := 0; i < ffs; i++ {
		// D-pins reach forward into the gates or back to a PI.
		d := gateNames[rng.Intn(gates)]
		if rng.Intn(4) == 0 {
			d = nets[rng.Intn(pis)]
		}
		name := fmt.Sprintf("q%d", i)
		add := b.AddDFF
		if rng.Intn(3) == 0 {
			add = b.AddNonScanDFF
		}
		if _, err := add(name, d); err != nil {
			t.Fatal(err)
		}
		nets = append(nets, name)
	}
	types := []netlist.GateType{netlist.Buf, netlist.Not, netlist.And, netlist.Nand,
		netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor}
	for _, name := range gateNames {
		typ := types[rng.Intn(len(types))]
		k := 1
		if typ != netlist.Buf && typ != netlist.Not {
			k = 2 + rng.Intn(2)
		}
		fanins := make([]string, k)
		for j := range fanins {
			fanins[j] = nets[rng.Intn(len(nets))]
		}
		if _, err := b.AddGate(name, typ, fanins...); err != nil {
			t.Fatal(err)
		}
		nets = append(nets, name)
	}
	b.MarkOutput(gateNames[gates-1])
	for i := 0; i < 2; i++ {
		b.MarkOutput(nets[rng.Intn(len(nets))])
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// implyChecker drives one podem through decision-stack operations — a
// push, a flip of the top decision, a pop of several decisions with a
// flip of the new top, as PODEM's backtrack does — and holds both frames
// to referenceSimulate after every imply.
type implyChecker struct {
	t     testing.TB
	p     *podem
	stack []int
	calls int
}

func newImplyChecker(t testing.TB, p *podem) *implyChecker {
	c := &implyChecker{t: t, p: p}
	c.check("start")
	return c
}

func (c *implyChecker) check(what string) {
	c.t.Helper()
	c.calls++
	want1, want2 := referenceSimulate(c.p)
	for id := range want1 {
		if c.p.v1[id] != want1[id] || c.p.v2[id] != want2[id] {
			c.t.Fatalf("fault %v, call %d after %s: net %d (%s) frames (%v, %v), full resimulation (%v, %v)",
				c.p.fault, c.calls, what, id, c.p.e.n.NameOf(id), c.p.v1[id], c.p.v2[id], want1[id], want2[id])
		}
	}
}

// step applies one operation selected by op and returns its name.
func (c *implyChecker) step(op byte) string {
	p := c.p
	switch op % 4 {
	case 0, 1: // push a decision on the first free variable from op's pick
		nv := p.e.numVars()
		start := int(op>>2) % nv
		for i := 0; i < nv; i++ {
			v := (start + i) % nv
			if p.assign[v] == logic.X {
				p.set(v, logic.FromBit(op&1 == 1))
				c.stack = append(c.stack, v)
				return "push"
			}
		}
		return "push (all assigned)"
	case 2: // flip the top decision
		if len(c.stack) == 0 {
			return "flip (empty)"
		}
		v := c.stack[len(c.stack)-1]
		p.set(v, p.assign[v].Not())
		return "flip"
	default: // pop one to three decisions, then flip the new top
		for k := 1 + int(op>>2)%3; k > 0 && len(c.stack) > 0; k-- {
			p.set(c.stack[len(c.stack)-1], logic.X)
			c.stack = c.stack[:len(c.stack)-1]
		}
		if len(c.stack) > 0 {
			v := c.stack[len(c.stack)-1]
			p.set(v, p.assign[v].Not())
		}
		return "pop"
	}
}

// TestImplyMatchesFullResimulation holds event-driven implication to the
// full resimulation oracle on random netlists with NoScan cells, for
// fault sites on every net in both directions, across random sequences
// of pushes, flips and multi-decision pops, with some operations batched
// into one imply. As in Generate, one podem per netlist is reset from
// fault to fault, sometimes with changes still pending.
func TestImplyMatchesFullResimulation(t *testing.T) {
	rng := stats.NewRNG(5)
	for seed := uint64(1); seed <= 40; seed++ {
		n := randomImplyNetlist(t, seed)
		ch := scan.Configure(n, 1+int(seed%3))
		e := newExpansion(n, ch)
		var p *podem
		// Every net is a site: flip-flops, internal gates, observation
		// nets and PIs (which are never injected).
		for site := 0; site < n.NumGates(); site++ {
			for _, dir := range []Direction{SlowToRise, SlowToFall} {
				f := Fault{Net: site, Dir: dir}
				if p == nil {
					p = newPodem(e, f)
				} else {
					p.reset(f)
				}
				c := newImplyChecker(t, p)
				for i := 0; i < 40; i++ {
					what := c.step(byte(rng.Uint64()))
					if rng.Intn(3) > 0 {
						c.p.imply()
						c.check(what)
					}
				}
			}
		}
	}
}

// FuzzImply is TestImplyMatchesFullResimulation driven by a fuzzed
// netlist seed and operation sequence: the first byte picks the fault,
// every later byte is one operation, and a byte with its top bit clear
// implies and checks after it.
func FuzzImply(f *testing.F) {
	// Seed 1's nets 0 and 1 are a PI and a scan cell; driving every
	// variable to 1 launches a slow-to-rise fault at either.
	f.Add(uint64(1), []byte{0x00, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01})
	f.Add(uint64(1), []byte{0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01})
	f.Add(uint64(1), []byte{0x00, 0x04, 0x81, 0x0a, 0x03, 0x02, 0x07})
	f.Add(uint64(7), []byte{0x11, 0x05, 0x09, 0x8d, 0x91, 0x0f, 0x02, 0x0b})
	f.Add(uint64(23), []byte{0x2a, 0x80, 0x84, 0x88, 0x8c, 0x0b, 0x06, 0x01})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) == 0 {
			return
		}
		n := randomImplyNetlist(t, seed)
		e := newExpansion(n, scan.Configure(n, 1+int(seed%3)))
		dir := SlowToRise
		if ops[0]&0x80 != 0 {
			dir = SlowToFall
		}
		c := newImplyChecker(t, newPodem(e, Fault{Net: int(ops[0]&0x7f) % n.NumGates(), Dir: dir}))
		for _, op := range ops[1:] {
			what := c.step(op & 0x7f)
			if op&0x80 == 0 {
				c.p.imply()
				c.check(what)
			}
		}
		c.p.imply()
		c.check("final")
	})
}

// TestGenerateResultDigest pins the Result of seed generation on the five
// Table I hosts at scale 0.2 under the certification service's ATPG
// options: patterns, counters and per-pattern credits, as JSON. The
// digest was recorded with full two-frame resimulation per PODEM
// decision; event-driven implication must reproduce it bit for bit.
func TestGenerateResultDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-scale ATPG runs")
	}
	const want = "061bb601411192e1d2634b515e3a25a3cde5a01354ddeae3f2aef17904db5db6"
	var all []*Result
	for _, c := range trust.Cases() {
		inst, err := trust.Build(c, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Generate(scan.Configure(inst.Host, 4), Options{
			Seed: 7, RandomPatterns: 32, MaxFaults: 40, FaultSample: 120, Workers: runtime.NumCPU(),
		})
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		all = append(all, res)
	}
	b, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("Result digest %s, want %s", got, want)
	}
}
