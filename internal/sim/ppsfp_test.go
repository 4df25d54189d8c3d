package sim_test

import (
	"testing"

	"superpose/internal/logic"
	"superpose/internal/netlist"
	"superpose/internal/sim"
	"superpose/internal/stats"
	"superpose/internal/trust"
)

// gateZoo returns a single-level netlist exercising every gate type.
func gateZoo(t testing.TB) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("zoo")
	for _, in := range []string{"a", "b", "c"} {
		if _, err := b.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	gates := []struct {
		name string
		typ  netlist.GateType
		in   []string
	}{
		{"g_and", netlist.And, []string{"a", "b"}},
		{"g_nand", netlist.Nand, []string{"a", "b"}},
		{"g_or", netlist.Or, []string{"a", "b"}},
		{"g_nor", netlist.Nor, []string{"a", "b"}},
		{"g_xor", netlist.Xor, []string{"a", "b"}},
		{"g_xnor", netlist.Xnor, []string{"a", "b"}},
		{"g_not", netlist.Not, []string{"a"}},
		{"g_buf", netlist.Buf, []string{"b"}},
		{"g_and3", netlist.And, []string{"a", "b", "c"}},
	}
	for _, g := range gates {
		if _, err := b.AddGate(g.name, g.typ, g.in...); err != nil {
			t.Fatal(err)
		}
		b.MarkOutput(g.name)
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// randomSources fills a source array with random 64-lane words on the
// netlist's PI and FF nets.
func randomSources(n *netlist.Netlist, rng *stats.RNG, dst []logic.Word) []logic.Word {
	for _, id := range n.PIs {
		dst[id] = logic.Word(rng.Uint64())
	}
	for _, id := range n.FFs {
		dst[id] = logic.Word(rng.Uint64())
	}
	return dst
}

// obsNets returns the observation points the fault simulator uses:
// primary outputs plus every flip-flop D-pin net, deduplicated.
func obsNets(n *netlist.Netlist) []int {
	seen := make(map[int]bool)
	var obs []int
	add := func(id int) {
		if !seen[id] {
			seen[id] = true
			obs = append(obs, id)
		}
	}
	for _, po := range n.POs {
		add(po)
	}
	for _, ff := range n.FFs {
		add(n.Gates[ff].Fanin[0])
	}
	return obs
}

func ppsfpTestNetlist(t testing.TB, seed uint64) *netlist.Netlist {
	t.Helper()
	n, err := trust.Generate(trust.Params{
		Name: "ppsfp", PIs: 6, POs: 6, FFs: 24, Comb: 300, Levels: 6, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestPPSFPRunIntoMatchesRun requires RunInto to be bit-identical to
// Simulator.Run over random 64-lane source words, on both the gate zoo
// (every gate type) and generated multi-level circuits.
func TestPPSFPRunIntoMatchesRun(t *testing.T) {
	nets := []*netlist.Netlist{gateZoo(t)}
	for seed := uint64(1); seed <= 3; seed++ {
		nets = append(nets, ppsfpTestNetlist(t, seed))
	}
	for _, n := range nets {
		s := sim.New(n)
		pp := sim.NewPPSFP(n)
		rng := stats.NewRNG(99)
		src := s.SourceWords()
		dst := make([]logic.Word, n.NumGates())
		for round := 0; round < 8; round++ {
			randomSources(n, rng, src)
			want := s.Run(src)
			pp.RunInto(src, dst)
			for id := range want {
				if dst[id] != want[id] {
					t.Fatalf("%s round %d: net %d (%s): PPSFP %016x, scalar %016x",
						n.Name, round, id, n.NameOf(id), dst[id], want[id])
				}
			}
		}
	}
}

// TestFaultPropMatchesRunForced cross-checks event-driven fault
// propagation (DeltaProp.Propagate) against full faulty-machine
// re-simulation: for every net and both forced polarities, the
// observation-point deviation restricted to the launch word must match
// the scalar diff computation exactly.
func TestFaultPropMatchesRunForced(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		n := ppsfpTestNetlist(t, seed)
		s := sim.New(n)
		obs := obsNets(n)
		fp := sim.NewDeltaProp(n)
		fp.Observe(obs)
		rng := stats.NewRNG(7 * seed)
		src := s.SourceWords()

		for round := 0; round < 3; round++ {
			randomSources(n, rng, src)
			base := append([]logic.Word(nil), s.Run(src)...)
			fp.SetBase(base)

			for net := 0; net < n.NumGates(); net++ {
				for _, forced := range []logic.Word{logic.AllZero, logic.AllOne, logic.Word(rng.Uint64())} {
					launch := logic.Word(rng.Uint64())

					faulty := s.RunForced(src, net, forced)
					var want logic.Word
					for _, o := range obs {
						want |= base[o] ^ faulty[o]
					}
					want &= launch

					got := fp.Propagate(net, forced, launch)
					if got != want {
						t.Fatalf("%s round %d net %d (%s) forced %016x launch %016x: prop %016x, oracle %016x",
							n.Name, round, net, n.NameOf(net), forced, launch, got, want)
					}
				}
			}
		}
	}
}

// TestFaultPropEarlyExitLanes checks the all-launch-lanes-covered early
// exit against the oracle on narrow launch words (single lanes), where
// the exit fires most often.
func TestFaultPropEarlyExitLanes(t *testing.T) {
	n := ppsfpTestNetlist(t, 5)
	s := sim.New(n)
	obs := obsNets(n)
	fp := sim.NewDeltaProp(n)
	fp.Observe(obs)
	rng := stats.NewRNG(11)
	src := randomSources(n, rng, s.SourceWords())
	base := append([]logic.Word(nil), s.Run(src)...)
	fp.SetBase(base)

	for net := 0; net < n.NumGates(); net += 3 {
		for lane := uint(0); lane < 64; lane += 17 {
			launch := logic.Word(1) << lane
			forced := logic.AllOne
			faulty := s.RunForced(src, net, forced)
			var want logic.Word
			for _, o := range obs {
				want |= base[o] ^ faulty[o]
			}
			want &= launch
			if got := fp.Propagate(net, forced, launch); got != want {
				t.Fatalf("net %d lane %d: prop %016x, oracle %016x", net, lane, got, want)
			}
		}
	}
}
