// Package trojan models foundry-inserted hardware Trojans in the
// trigger/payload structure of the Trust-Hub benchmarks (paper §II-A): a
// trigger tree ANDs together rare-valued internal nets (so chance
// functional activation is near impossible) and, when satisfied, a payload
// gate corrupts a victim net.
//
// The package provides the attacker's half of the experiment: rare-net
// analysis to place triggers, netlist insertion, and ground-truth queries
// (which gates are Trojan gates, is the trigger active) that the
// evaluation metrics — but never the detection flow itself — may consult.
package trojan

import (
	"fmt"
	"sort"

	"superpose/internal/logic"
	"superpose/internal/netlist"
	"superpose/internal/sim"
)

// Spec describes a Trojan to insert into a host netlist.
type Spec struct {
	Name string
	// Trigger taps: host net names and the rare value required on each.
	TriggerNets     []string
	TriggerPolarity []bool // true: net must be 1 to fire
	// VictimNet is the host net whose readers the payload corrupts.
	VictimNet string
	// ExtraVictims adds further payload XORs gated by the same trigger
	// (some Trust-Hub variants corrupt several bits, e.g. s35932-T300's
	// two payload taps). All victim constraints apply to each.
	ExtraVictims []string
	// TreeArity is the AND-tree fanin (2..4 typical). Default 2.
	TreeArity int
	// SequentialDepth, when positive, makes the Trojan sequential: the
	// combinational rare-event detector feeds a SequentialDepth-bit
	// counter of hidden (non-scan) flip-flops, and the payload fires only
	// at terminal count — the time-bomb structure of [17]/[23]. Zero (the
	// default) is the paper's combinational model.
	SequentialDepth int
}

// Victims returns all payload targets (primary plus extras).
func (s *Spec) Victims() []string {
	return append([]string{s.VictimNet}, s.ExtraVictims...)
}

// Validate checks internal consistency.
func (s *Spec) Validate() error {
	if len(s.TriggerNets) == 0 {
		return fmt.Errorf("trojan %q: empty trigger", s.Name)
	}
	if len(s.TriggerNets) != len(s.TriggerPolarity) {
		return fmt.Errorf("trojan %q: %d trigger nets but %d polarities",
			s.Name, len(s.TriggerNets), len(s.TriggerPolarity))
	}
	if s.VictimNet == "" {
		return fmt.Errorf("trojan %q: no victim net", s.Name)
	}
	if s.TreeArity != 0 && s.TreeArity < 2 {
		return fmt.Errorf("trojan %q: tree arity %d < 2", s.Name, s.TreeArity)
	}
	seen := make(map[string]bool)
	for _, v := range s.Victims() {
		if v == "" {
			return fmt.Errorf("trojan %q: empty victim net", s.Name)
		}
		if seen[v] {
			return fmt.Errorf("trojan %q: victim %q listed twice", s.Name, v)
		}
		seen[v] = true
		for _, t := range s.TriggerNets {
			if t == v {
				return fmt.Errorf("trojan %q: victim %q is also a trigger tap (combinational loop)",
					s.Name, t)
			}
		}
	}
	return nil
}

// Instance is an inserted Trojan: the infected netlist plus ground truth.
// Gate IDs of the host circuit are preserved in the infected netlist
// (Trojan gates are appended), so toggle sets computed on either netlist
// agree on the benign gates — the property the whole side-channel
// evaluation rests on.
type Instance struct {
	Spec     Spec
	Host     *netlist.Netlist // the Trojan-free design (defender's view)
	Infected *netlist.Netlist // the manufactured reality

	TriggerOut  int   // infected-netlist ID of the final trigger net
	PayloadOut  int   // infected-netlist ID of the primary payload XOR
	PayloadOuts []int // all payload XOR IDs (multi-victim Trojans)
	// EventOut is the combinational rare-event detector's net. For a
	// combinational Trojan it equals TriggerOut; for a sequential one the
	// counter sits between them.
	EventOut int
	// CounterFFs lists the hidden counter cells of a sequential Trojan.
	CounterFFs  []int
	TrojanGates []int // all inserted gate IDs (inverters, tree, payload)

	isTrojan []bool // indexed by infected gate ID
}

// Insert builds the infected netlist from a host and a spec.
func Insert(host *netlist.Netlist, spec Spec) (*Instance, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	arity := spec.TreeArity
	if arity == 0 {
		arity = 2
	}
	b := netlist.Clone(host)
	inst := &Instance{Spec: spec, Host: host}

	addGate := func(prefix string, typ netlist.GateType, fanins ...string) (string, error) {
		name := b.FreshName(fmt.Sprintf("troj_%s_%s", spec.Name, prefix))
		if _, err := b.AddGate(name, typ, fanins...); err != nil {
			return "", err
		}
		return name, nil
	}

	// Leaf conditioning: invert negative-polarity taps.
	var level []string
	for i, tap := range spec.TriggerNets {
		if !b.Has(tap) {
			return nil, fmt.Errorf("trojan %q: trigger net %q not in host", spec.Name, tap)
		}
		if spec.TriggerPolarity[i] {
			level = append(level, tap)
			continue
		}
		inv, err := addGate(fmt.Sprintf("inv%d", i), netlist.Not, tap)
		if err != nil {
			return nil, err
		}
		level = append(level, inv)
	}

	// AND-tree reduction. A single positive tap still gets a buffer so the
	// trigger net is always a Trojan-owned gate.
	treeIdx := 0
	for len(level) > 1 {
		var next []string
		for start := 0; start < len(level); start += arity {
			end := start + arity
			if end > len(level) {
				end = len(level)
			}
			group := level[start:end]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			g, err := addGate(fmt.Sprintf("and%d", treeIdx), netlist.And, group...)
			if err != nil {
				return nil, err
			}
			treeIdx++
			next = append(next, g)
		}
		level = next
	}
	trigger := level[0]
	if trigger == spec.TriggerNets[0] { // single positive tap: buffer it
		buf, err := addGate("trig", netlist.Buf, trigger)
		if err != nil {
			return nil, err
		}
		trigger = buf
	}
	event := trigger

	// Sequential stage: a hidden counter of rare-event occurrences. The
	// counter cells are non-scan flip-flops — scan access would expose
	// them — and the trigger only completes at terminal count.
	var counterCells []string
	if spec.SequentialDepth > 0 {
		carry := event
		var bits []string
		for k := 0; k < spec.SequentialDepth; k++ {
			cell := b.FreshName(fmt.Sprintf("troj_%s_cnt%d", spec.Name, k))
			dPin := b.FreshName(fmt.Sprintf("troj_%s_cntd%d", spec.Name, k))
			if _, err := b.AddNonScanDFF(cell, dPin); err != nil {
				return nil, err
			}
			if _, err := b.AddGate(dPin, netlist.Xor, cell, carry); err != nil {
				return nil, err
			}
			if k < spec.SequentialDepth-1 {
				next, err := addGate(fmt.Sprintf("carry%d", k), netlist.And, cell, carry)
				if err != nil {
					return nil, err
				}
				carry = next
			}
			bits = append(bits, cell)
			counterCells = append(counterCells, cell)
		}
		if len(bits) == 1 {
			trigger = bits[0]
		} else {
			full, err := addGate("full", netlist.And, bits...)
			if err != nil {
				return nil, err
			}
			trigger = full
		}
	}

	// Payloads: one XOR per victim, all gated by the same trigger, each
	// spliced into its victim's readers. The only Trojan gates reading
	// host nets are the leaf conditioners and first tree level, and
	// Validate guarantees no victim is a tap, so excluding the payload
	// and trigger nets suffices to avoid loops.
	var payloads []string
	for vi, victim := range spec.Victims() {
		if !b.Has(victim) {
			return nil, fmt.Errorf("trojan %q: victim net %q not in host", spec.Name, victim)
		}
		payload, err := addGate(fmt.Sprintf("payload%d", vi), netlist.Xor, victim, trigger)
		if err != nil {
			return nil, err
		}
		if err := b.RewireReaders(victim, payload, payload, trigger); err != nil {
			return nil, err
		}
		payloads = append(payloads, payload)
	}

	infected, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("trojan %q: infected netlist invalid: %w", spec.Name, err)
	}
	inst.Infected = infected
	// Every name below was declared through b, whose net IDs are the
	// infected netlist's, so the builder resolves them without making
	// the netlist build its name index.
	netID := func(name string) int { return int(b.InternString(name)) }
	for _, p := range payloads {
		inst.PayloadOuts = append(inst.PayloadOuts, netID(p))
	}
	inst.PayloadOut = inst.PayloadOuts[0]

	// Ground truth: every gate beyond the host's count is Trojan logic.
	inst.isTrojan = make([]bool, infected.NumGates())
	for id := host.NumGates(); id < infected.NumGates(); id++ {
		inst.isTrojan[id] = true
		inst.TrojanGates = append(inst.TrojanGates, id)
	}
	inst.TriggerOut = netID(trigger)
	inst.EventOut = netID(event)
	for _, cell := range counterCells {
		inst.CounterFFs = append(inst.CounterFFs, netID(cell))
	}
	return inst, nil
}

// IsTrojanGate reports whether infected-netlist gate id is Trojan logic.
func (inst *Instance) IsTrojanGate(id int) bool {
	return id < len(inst.isTrojan) && inst.isTrojan[id]
}

// CountTrojanToggles returns how many gates of a toggle set (infected IDs)
// are Trojan gates.
func (inst *Instance) CountTrojanToggles(toggles []int) int {
	c := 0
	for _, id := range toggles {
		if inst.IsTrojanGate(id) {
			c++
		}
	}
	return c
}

// TriggerActive reports whether the full trigger fires at pattern lane
// `lane` of an infected-netlist evaluation.
func (inst *Instance) TriggerActive(values []logic.Word, lane uint) bool {
	return values[inst.TriggerOut]&(logic.Word(1)<<lane) != 0
}

// ActivationProbability estimates how often the full trigger fires under
// uniformly random stimuli — the attacker's stealth check (a Trojan whose
// trigger fires during ordinary functional test would be caught by plain
// response comparison).
func (inst *Instance) ActivationProbability(numPatterns int, seed uint64) float64 {
	probs := sim.SignalProbabilities(inst.Infected, numPatterns, seed)
	return probs[inst.TriggerOut]
}

// RareNet is one candidate trigger tap.
type RareNet struct {
	ID        int
	Name      string
	Prob      float64 // probability of the net being 1
	RareValue bool    // the less likely value
	Rareness  float64 // min(Prob, 1-Prob)
}

// FindRareNets estimates signal probabilities with numPatterns random
// vectors and returns the internal nets (combinational gates and flip-flop
// outputs, not primary inputs) whose rarer value has probability at most
// maxProb, sorted rarest-first with gate ID as the deterministic
// tie-breaker.
func FindRareNets(n *netlist.Netlist, numPatterns int, seed uint64, maxProb float64) []RareNet {
	probs := sim.SignalProbabilities(n, numPatterns, seed)
	var out []RareNet
	for id, g := range n.Gates {
		if g.Type == netlist.Input {
			continue
		}
		p := probs[id]
		// The rare value is the one that seldom occurs: 1 when p is small.
		r := RareNet{ID: id, Name: n.NameOf(id), Prob: p, RareValue: p < 0.5}
		if r.RareValue {
			r.Rareness = p
		} else {
			r.Rareness = 1 - p
		}
		if r.Rareness <= maxProb {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rareness != out[j].Rareness {
			return out[i].Rareness < out[j].Rareness
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// TapAncestors returns, per net, whether the net lies in the combinational
// transitive fan-in cone of any of the named taps (taps included). A
// payload victim inside this cone would make the trigger depend on the
// payload and create a combinational cycle, so victim selection must
// avoid it. Traversal stops at sources: feedback through a flip-flop is
// sequential and harmless.
func TapAncestors(n *netlist.Netlist, taps []string) ([]bool, error) {
	mark := make([]bool, n.NumGates())
	var stack []int
	for _, tap := range taps {
		id, ok := n.GateID(tap)
		if !ok {
			return nil, fmt.Errorf("trojan: tap %q not in netlist", tap)
		}
		if !mark[id] {
			mark[id] = true
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.Gates[id].Type.IsSource() {
			continue
		}
		for _, f := range n.Gates[id].Fanin {
			if !mark[f] {
				mark[f] = true
				stack = append(stack, f)
			}
		}
	}
	return mark, nil
}

// BuildSpec assembles a Spec from rare-net analysis: the k rarest nets
// become trigger taps (required at their rare value) and victim selects
// the payload target by name. Taps equal to the victim are skipped.
func BuildSpec(name string, rare []RareNet, k int, victim string) (Spec, error) {
	s := Spec{Name: name, VictimNet: victim, TreeArity: 2}
	for _, r := range rare {
		if len(s.TriggerNets) == k {
			break
		}
		if r.Name == victim {
			continue
		}
		s.TriggerNets = append(s.TriggerNets, r.Name)
		s.TriggerPolarity = append(s.TriggerPolarity, r.RareValue)
	}
	if len(s.TriggerNets) < k {
		return Spec{}, fmt.Errorf("trojan %q: only %d of %d rare taps available", name, len(s.TriggerNets), k)
	}
	return s, s.Validate()
}
