package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"superpose/internal/netlist"
	"superpose/internal/power"
	"superpose/internal/scan"
	"superpose/internal/stats"
)

// sessionCircuit builds a random full-scan circuit that also carries
// NoScan flip-flops: every gate reads earlier nets and every flip-flop's
// D pin is a random gate, so flip cones reach the hidden cells' D pins.
func sessionCircuit(t *testing.T, seed uint64) *netlist.Netlist {
	t.Helper()
	rng := stats.NewRNG(seed)
	b := netlist.NewBuilder("session")
	const nPI, nFF, nHidden, nGates = 4, 14, 3, 90
	var nets []string
	pick := func() string { return nets[rng.Intn(len(nets))] }
	must := func(_ int, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nPI; i++ {
		name := fmt.Sprintf("pi%d", i)
		must(b.AddInput(name))
		nets = append(nets, name)
	}
	for i := 0; i < nFF+nHidden; i++ {
		name := fmt.Sprintf("ff%d", i)
		add := b.AddDFF
		if i >= nFF {
			add = b.AddNonScanDFF
		}
		must(add(name, fmt.Sprintf("g%d", rng.Intn(nGates))))
		nets = append(nets, name)
	}
	types := []netlist.GateType{netlist.And, netlist.Or, netlist.Nand, netlist.Nor, netlist.Xor, netlist.Not}
	for i := 0; i < nGates; i++ {
		typ := types[rng.Intn(len(types))]
		fanin := []string{pick()}
		if typ != netlist.Not {
			fanin = append(fanin, pick())
		}
		name := fmt.Sprintf("g%d", i)
		must(b.AddGate(name, typ, fanin...))
		nets = append(nets, name)
	}
	for i := nGates - 4; i < nGates; i++ {
		b.MarkOutput(fmt.Sprintf("g%d", i))
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSweepSessionCarriesNoState pins that sharing one sweep session
// across the flow's stages carries nothing from one stage to the next:
// on a noiseless chip behind an ideal tester, Adaptive → StrategicModify
// → Adaptive on one Evaluator must produce the same bytes as each call
// on a fresh Evaluator, under LOS and LOC, on circuits with NoScan cells.
func TestSweepSessionCarriesNoState(t *testing.T) {
	lib := power.SAED90Like()
	for _, seed := range []uint64{1, 2, 3} {
		n := sessionCircuit(t, seed)
		for _, mode := range []scan.Mode{scan.LOS, scan.LOC} {
			label := fmt.Sprintf("seed %d %v", seed, mode)
			stack := func() *Evaluator {
				chip := power.Manufacture(n, lib, power.ThreeSigmaIntra(0.15), seed)
				return NewEvaluator(n, lib, NewDevice(chip, 2, mode), 2, mode)
			}
			rng := stats.NewRNG(seed)
			shared := stack()
			seeds := []*scan.Pattern{shared.Chains().RandomPattern(rng), shared.Chains().RandomPattern(rng)}
			opt := AdaptiveOptions{DropThreshold: 0.005}

			// The strategic pair: the first climb's best pattern and its
			// flip at the critical bit.
			critical := CellRef{0, 1}
			pair := func(ar *AdaptiveResult) (*scan.Pattern, *scan.Pattern) {
				a := ar.Steps[ar.Best].Pattern
				b := a.Clone()
				applyFlip(b, critical)
				return a, b
			}
			var got, want [3][]byte
			marshal := func(v any) []byte {
				out, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}

			first := shared.Adaptive(seeds[0], opt)
			a, b := pair(first)
			strat := shared.StrategicModify(a, b, critical, StrategicOptions{})
			got[0], got[1] = marshal(first), marshal(strat)
			got[2] = marshal(shared.Adaptive(seeds[1], opt))
			shared.Close()

			fresh := stack()
			want[0] = marshal(fresh.Adaptive(seeds[0], opt))
			fresh.Close()
			fresh = stack()
			want[1] = marshal(fresh.StrategicModify(a, b, critical, StrategicOptions{}))
			fresh.Close()
			fresh = stack()
			want[2] = marshal(fresh.Adaptive(seeds[1], opt))
			fresh.Close()

			for i, stage := range []string{"first Adaptive", "StrategicModify", "second Adaptive"} {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s: %s on a shared session deviates from a fresh Evaluator:\n  fresh  %s\n  shared %s",
						label, stage, want[i], got[i])
				}
			}
			if len(first.Steps) < 2 || len(strat.Applied) == 0 {
				t.Fatalf("%s: the stages never moved (%d climb steps, %d strategic mods); the test compares nothing",
					label, len(first.Steps), len(strat.Applied))
			}
		}
	}
}
