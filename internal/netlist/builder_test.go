package netlist_test

import (
	"fmt"
	"testing"

	"superpose/internal/netlist"
	"superpose/internal/trojan"
	"superpose/internal/trust"
)

// op is one step of a declaration sequence, applied alike to the map
// oracle, Builder's name API and Builder's token API.
type op struct {
	kind opKind
	name string
	typ  netlist.GateType
	// Fanin names for opDFF/opNonScanDFF/opGate/opFresh; for opRewire
	// the target net followed by the excluded nets.
	args []string
}

type opKind uint8

const (
	opIntern     opKind = iota // mention a net without defining it
	opInput                    // primary input
	opDFF                      // scan flip-flop reading args[0]
	opNonScanDFF               // non-scan flip-flop reading args[0]
	opGate                     // gate of typ over args
	opOutput                   // primary output marking
	opRewire                   // RewireReaders(name, args[0], args[1:]...)
	opFresh                    // gate of typ over args named FreshName(name)
	numOpKinds
)

// nameAPI is the name-keyed surface Builder shares with the map oracle.
type nameAPI interface {
	AddInput(name string) (int, error)
	AddDFF(name, d string) (int, error)
	AddNonScanDFF(name, d string) (int, error)
	AddGate(name string, typ netlist.GateType, fanins ...string) (int, error)
	MarkOutput(name string)
	FreshName(prefix string) string
	RewireReaders(from, to string, exclude ...string) error
	NumGates() int
	Build() (*netlist.Netlist, error)
}

// applyName applies o through the name API; intern mentions a net. It
// returns the fresh name an opFresh chose.
func applyName(b nameAPI, intern func(string), o op) (string, error) {
	var err error
	switch o.kind {
	case opIntern:
		intern(o.name)
	case opInput:
		_, err = b.AddInput(o.name)
	case opDFF:
		_, err = b.AddDFF(o.name, o.args[0])
	case opNonScanDFF:
		_, err = b.AddNonScanDFF(o.name, o.args[0])
	case opGate:
		_, err = b.AddGate(o.name, o.typ, o.args...)
	case opOutput:
		b.MarkOutput(o.name)
	case opRewire:
		err = b.RewireReaders(o.name, o.args[0], o.args[1:]...)
	case opFresh:
		name := b.FreshName(o.name)
		_, err = b.AddGate(name, o.typ, o.args...)
		return name, err
	}
	return "", err
}

// applyToken applies o through the token API the parsers use: intern
// the defined net, then its fanins, then define by ID. Rewires and fresh
// names only exist in the name API.
func applyToken(b *netlist.Builder, o op) (string, error) {
	intern := func(name string) int32 { return b.Intern([]byte(name)) }
	switch o.kind {
	case opInput:
		return "", b.DefineInput(intern(o.name))
	case opDFF:
		id := intern(o.name)
		return "", b.DefineDFF(id, intern(o.args[0]))
	case opNonScanDFF:
		id := intern(o.name)
		return "", b.DefineNonScanDFF(id, intern(o.args[0]))
	case opGate, opFresh:
		name, fresh := o.name, ""
		if o.kind == opFresh {
			name = b.FreshName(name)
			fresh = name
		}
		id := intern(name)
		ids := make([]int32, len(o.args))
		for i, f := range o.args {
			ids[i] = intern(f)
		}
		return fresh, b.DefineGate(id, o.typ, ids)
	}
	return applyName(b, func(name string) { b.InternString(name) }, o)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// replay drives the oracle, the name API and the token API through ops
// and fails unless all three agree: the same error text at every op, the
// same fresh names, the same net count, and ID-for-ID identical netlists
// (netlist.Diff) or the same Build error. The name API must match the
// oracle even after an op fails; the token API, like the parsers that
// use it, interns every token before defining, so it is held to the
// oracle only up to its first error. replay returns the oracle's
// netlist, or the first error.
func replay(t testing.TB, oracle *netlist.MapBuilder, name, token *netlist.Builder, ops []op) (*netlist.Netlist, error) {
	t.Helper()
	var firstErr error
	tokenLive := true
	for i, o := range ops {
		want, werr := applyName(oracle, func(n string) { oracle.Intern(n) }, o)
		got, gerr := applyName(name, func(n string) { name.InternString(n) }, o)
		if errText(gerr) != errText(werr) || got != want {
			t.Fatalf("op %d %+v: name API (%q, %v), oracle (%q, %v)", i, o, got, gerr, want, werr)
		}
		if tokenLive {
			got, gerr = applyToken(token, o)
			if errText(gerr) != errText(werr) || got != want {
				t.Fatalf("op %d %+v: token API (%q, %v), oracle (%q, %v)", i, o, got, gerr, want, werr)
			}
			tokenLive = werr == nil
		}
		if firstErr == nil {
			firstErr = werr
		}
	}
	if name.NumGates() != oracle.NumGates() {
		t.Fatalf("name API saw %d nets, oracle %d", name.NumGates(), oracle.NumGates())
	}
	want, werr := oracle.Build()
	check := func(api string, b *netlist.Builder) {
		got, gerr := b.Build()
		if errText(gerr) != errText(werr) {
			t.Fatalf("Build: %s %v, oracle %v", api, gerr, werr)
		}
		if werr == nil {
			if d := netlist.Diff(want, got); d != "" {
				t.Fatalf("%s disagrees with the map oracle: %s", api, d)
			}
		}
	}
	check("name API", name)
	if tokenLive {
		check("token API", token)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return want, werr
}

// replayNew replays ops from empty builders.
func replayNew(t testing.TB, ops []op) (*netlist.Netlist, error) {
	t.Helper()
	const name = "equiv"
	return replay(t, netlist.NewMapBuilder(name), netlist.NewBuilder(name), netlist.NewBuilder(name), ops)
}

// replayClone replays ops on top of clones of n.
func replayClone(t testing.TB, n *netlist.Netlist, ops []op) (*netlist.Netlist, error) {
	t.Helper()
	return replay(t, netlist.CloneMap(n), netlist.Clone(n), netlist.Clone(n), ops)
}

func TestBuilderTokenEquivalence(t *testing.T) {
	ops := []op{
		{kind: opInput, name: "a"},
		{kind: opInput, name: "b"},
		{kind: opOutput, name: "z"}, // marked before its driver exists
		{kind: opDFF, name: "q0", args: []string{"d0"}},
		{kind: opNonScanDFF, name: "q1", args: []string{"d1"}},
		// Forward references: g1 reads g2 before g2 is defined.
		{kind: opGate, name: "g1", typ: netlist.Nand, args: []string{"a", "g2"}},
		{kind: opGate, name: "g2", typ: netlist.Nor, args: []string{"b", "q0", "q1"}},
		{kind: opGate, name: "z", typ: netlist.Xor, args: []string{"g1", "g2"}},
		{kind: opGate, name: "d0", typ: netlist.Buf, args: []string{"z"}},
		{kind: opGate, name: "d1", typ: netlist.Not, args: []string{"g1"}},
		{kind: opOutput, name: "g2"},
	}
	want, err := replayNew(t, ops)
	if err != nil {
		t.Fatal(err)
	}
	b := netlist.NewBuilder("equiv")
	for _, o := range ops {
		if _, err := applyToken(b, o); err != nil {
			t.Fatal(err)
		}
	}
	got, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Fanouts (derived by Freeze) match too.
	for id := range want.Gates {
		wf, gf := want.Fanouts(id), got.Fanouts(id)
		if fmt.Sprint(wf) != fmt.Sprint(gf) {
			t.Fatalf("gate %d fanouts %v vs %v", id, gf, wf)
		}
	}
	// The lazy name index answers the same queries.
	for id, name := range want.Names {
		if gid, ok := got.GateID(name); !ok || gid != id {
			t.Fatalf("GateID(%q) = %d,%v; want %d", name, gid, ok, id)
		}
	}
	if _, ok := got.GateID("no-such-net"); ok {
		t.Fatal("GateID invented a net")
	}
}

func TestBuilderTokenErrors(t *testing.T) {
	for _, ops := range [][]op{
		// Net defined twice.
		{{kind: opInput, name: "a"}, {kind: opInput, name: "a"}},
		{{kind: opInput, name: "a"}, {kind: opGate, name: "a", typ: netlist.Buf, args: []string{"a"}}},
		// Referenced but never defined.
		{{kind: opInput, name: "a"}, {kind: opGate, name: "g", typ: netlist.Buf, args: []string{"x"}}},
		// Output never defined.
		{{kind: opInput, name: "a"}, {kind: opOutput, name: "zz"}},
		// Source types must go through the input/flip-flop definers.
		{{kind: opGate, name: "x", typ: netlist.DFF}},
		{{kind: opGate, name: "x", typ: netlist.Input}},
		// Rewiring unknown nets.
		{{kind: opInput, name: "a"}, {kind: opRewire, name: "a", args: []string{"ghost"}}},
	} {
		if _, err := replayNew(t, ops); err == nil {
			t.Fatalf("ops %+v: every builder accepted them", ops)
		}
	}
}

// Regression for stack-depth hazards: a 50k-deep inverter
// chain must build, levelize, walk and simulate without recursion
// blowing the stack — every walk in the netlist core is iterative.
func TestDeepChain50k(t *testing.T) {
	const depth = 50000
	b := netlist.NewBuilderSized("deep", depth+8)
	in := b.InternString("a")
	if err := b.DefineInput(in); err != nil {
		t.Fatal(err)
	}
	// One scan cell so the scan infrastructure has something to drive.
	ff := b.InternString("ff0")
	if err := b.DefineDFF(ff, b.InternString("d0")); err != nil {
		t.Fatal(err)
	}
	prev := in
	for i := 0; i < depth; i++ {
		id := b.InternString(fmt.Sprintf("c%d", i))
		typ := netlist.Not
		if i%2 == 1 {
			typ = netlist.Buf
		}
		if err := b.DefineGate(id, typ, []int32{prev}); err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	if err := b.DefineGate(b.InternString("d0"), netlist.Buf, []int32{prev}); err != nil {
		t.Fatal(err)
	}
	b.MarkOutput(fmt.Sprintf("c%d", depth-1))
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Depth(); got != depth+1 {
		t.Fatalf("depth = %d, want %d", got, depth+1)
	}

	// And the SoA compiles and levelizes identically.
	s := n.SoA()
	if int(s.MaxLevel) != depth+1 {
		t.Fatalf("SoA max level = %d, want %d", s.MaxLevel, depth+1)
	}
}

// declare returns the op that defines gate id of n by name.
func declare(n *netlist.Netlist, id int) op {
	g := n.Gates[id]
	o := op{kind: opGate, name: n.Names[id], typ: g.Type}
	for _, f := range g.Fanin {
		o.args = append(o.args, n.Names[f])
	}
	switch {
	case g.Type == netlist.Input:
		o.kind = opInput
	case g.Type == netlist.DFF && n.IsNoScan(id):
		o.kind = opNonScanDFF
	case g.Type == netlist.DFF:
		o.kind = opDFF
	}
	return o
}

// idOrderOps declares every gate of n in ID order, naming fanins that
// are declared later (forward references), then marks the outputs.
func idOrderOps(n *netlist.Netlist) []op {
	var ops []op
	for id := range n.Gates {
		ops = append(ops, declare(n, id))
	}
	for _, po := range n.POs {
		ops = append(ops, op{kind: opOutput, name: n.Names[po]})
	}
	return ops
}

// faithfulOps rebuilds n exactly: it mentions every net in ID order,
// then declares inputs and flip-flops in n's port order, the gates in
// ID order and the outputs in PO order.
func faithfulOps(n *netlist.Netlist) []op {
	var ops []op
	for _, name := range n.Names {
		ops = append(ops, op{kind: opIntern, name: name})
	}
	for _, id := range n.PIs {
		ops = append(ops, declare(n, id))
	}
	for _, id := range n.FFs {
		ops = append(ops, declare(n, id))
	}
	for id, g := range n.Gates {
		if !g.Type.IsSource() {
			ops = append(ops, declare(n, id))
		}
	}
	for _, po := range n.POs {
		ops = append(ops, op{kind: opOutput, name: n.Names[po]})
	}
	return ops
}

// trojanOps replays the edits that turned host into infected on a clone
// of host: the Trojan's gates in ID order, then one rewire per payload
// (an XOR of its victim and the trigger) onto the victim's readers.
func trojanOps(host, infected *netlist.Netlist, payloads []int) []op {
	var ops []op
	for id := host.NumGates(); id < infected.NumGates(); id++ {
		ops = append(ops, declare(infected, id))
	}
	for _, p := range payloads {
		victim := infected.Gates[p].Fanin[0]
		trigger := infected.Gates[p].Fanin[1]
		ops = append(ops, op{kind: opRewire, name: infected.Names[victim],
			args: []string{infected.Names[p], infected.Names[p], infected.Names[trigger]}})
	}
	return ops
}

// TestBuilderMatchesMapOracleOnTrustCases holds Builder to the map
// oracle on every Table I host and its Trojan-inserted netlist, through
// the name API, the token API and Clone+RewireReaders. The faithful
// replays must also rebuild the production netlists exactly.
func TestBuilderMatchesMapOracleOnTrustCases(t *testing.T) {
	for _, c := range trust.Cases() {
		t.Run(c.String(), func(t *testing.T) {
			inst, err := trust.Build(c, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			host := inst.Host
			if _, err := replayNew(t, idOrderOps(host)); err != nil {
				t.Fatalf("ID-order replay: %v", err)
			}
			n, err := replayNew(t, faithfulOps(host))
			if err != nil {
				t.Fatalf("faithful replay: %v", err)
			}
			if d := netlist.Diff(host, n); d != "" {
				t.Fatalf("faithful replay differs from the generated host: %s", d)
			}

			// The case's Trojan, and a sequential variant whose hidden
			// counter adds non-scan flip-flops.
			seq := inst.Spec
			seq.SequentialDepth = 2
			seqInst, err := trojan.Insert(host, seq)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range []*trojan.Instance{inst, seqInst} {
				n, err := replayClone(t, host, trojanOps(host, in.Infected, in.PayloadOuts))
				if err != nil {
					t.Fatalf("Trojan replay: %v", err)
				}
				if d := netlist.Diff(in.Infected, n); d != "" {
					t.Fatalf("Trojan replay differs from trojan.Insert: %s", d)
				}
				if _, err := replayNew(t, faithfulOps(in.Infected)); err != nil {
					t.Fatalf("faithful infected replay: %v", err)
				}
			}
		})
	}
}

// fuzzNames is the net-name pool FuzzBuilder draws from: small, so
// sequences hit forward references, duplicate definitions, undefined
// nets and rewires of live nets often.
var fuzzNames = []string{"a", "b", "c", "d", "e", "f", "g", "h", "q", "z"}

// decodeOps turns fuzz bytes into a declaration sequence, at most 64 ops.
func decodeOps(data []byte) []op {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	pick := func() string { return fuzzNames[next()%len(fuzzNames)] }
	var ops []op
	for len(data) > 0 && len(ops) < 64 {
		o := op{kind: opKind(next() % int(numOpKinds)), name: pick()}
		switch o.kind {
		case opDFF, opNonScanDFF:
			o.args = []string{pick()}
		case opGate, opFresh:
			o.typ = netlist.GateType(next() % (int(netlist.Xnor) + 1))
			for k := next() % 5; k > 0; k-- {
				o.args = append(o.args, pick())
			}
		case opRewire:
			for k := 1 + next()%3; k > 0; k-- {
				o.args = append(o.args, pick())
			}
		}
		ops = append(ops, o)
	}
	return ops
}

// FuzzBuilder drives random declaration sequences through Builder's
// name and token APIs and holds both to the map oracle (see replay).
// An odd first byte splits the sequence: the prefix builds a base
// netlist, and the rest edits clones of it (Clone vs CloneMap), the way
// Trojan insertion does.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 1, 4, 2, 6, 2, 0, 1, 5, 7})
	f.Add([]byte{1, 8, 1, 0, 1, 1, 3, 9, 2, 5, 4, 2, 3, 8, 1, 2, 6, 2, 0, 9, 4, 5, 0, 7, 9, 3, 5, 9, 6, 3, 1, 1})
	f.Add([]byte{1, 5, 1, 0, 1, 1, 4, 3, 6, 2, 0, 1, 5, 3, 7, 3, 4, 2, 3, 1, 6, 3, 8, 1, 3, 7, 0, 4, 2})
	f.Add([]byte{0, 2, 1, 2, 1, 4, 0, 4, 2, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		clone, split := data[0]&1 == 1, int(data[1])
		ops := decodeOps(data[2:])
		if !clone {
			replayNew(t, ops)
			return
		}
		split %= len(ops) + 1
		base, err := replayNew(t, ops[:split])
		if err != nil {
			return
		}
		replayClone(t, base, ops[split:])
	})
}
